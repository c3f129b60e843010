package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
)

// TestGoldenScenarioDigests pins Scenario.Digest for one scenario per
// protocol (plus one churned spec). These digests are cache keys: a
// silent drift would make every persisted result store serve stale —
// or miss fresh — results, so any intentional change to the digest
// encoding must bump scenarioDigestVersion and re-pin these constants.
func TestGoldenScenarioDigests(t *testing.T) {
	golden := map[string]string{
		ProtoRBroadcast: "a608d31b530bdd78fb7f3c0fe8f33c20cf335966d3c921df0daabda88008d4c1",
		ProtoRotor:      "57597bb426490fd7de300b274e6a366db126b9affec674c8e79d0d3d31211acb",
		ProtoConsensus:  "55d50b66f821e9db47d1082bd9a515e7f9d631180104923935313b1b4b9aae17",
		ProtoApprox:     "f877009be3aca0bae56adb5e50248f8e74397a697c7ec1b93e271eb020a0e7d1",
		ProtoParallel:   "e85e0cada19297d05ed9f0bd7ccb63ade2c97a92c66a01dcbfa9e312d9c60b69",
		ProtoDynamic:    "982690f06164b5c254c797ace9486bd77c94807c97655aee3228957da9c7caa5",
	}
	for _, proto := range Protocols() {
		s := Scenario{Protocol: proto, Adversary: AdvSplit, N: 7, F: 2, Seed: 1}
		if got := s.Digest(); got != golden[proto] {
			t.Errorf("%s digest drifted:\n  got  %s\n  want %s\n(bump scenarioDigestVersion and re-pin if intentional)",
				proto, got, golden[proto])
		}
	}
	churned := Scenario{Protocol: ProtoDynamic, Adversary: AdvSplit, N: 10, F: 2, Seed: 5,
		Churn: &Churn{Joins: 2, Leaves: 1, FaultyJoins: 1, FaultyLeaves: 1}}
	if got, want := churned.Digest(), "9dee1c7038934f3d241d58481a93306c8a17d9c412565e26622071f960c25ebc"; got != want {
		t.Errorf("churned digest drifted:\n  got  %s\n  want %s", got, want)
	}
}

// TestDigestDefaultResolution: a zero MaxRounds and the explicit
// protocol default are the same scenario, so they must share one cache
// address; an explicit non-default MaxRounds must not.
func TestDigestDefaultResolution(t *testing.T) {
	implicit := Scenario{Protocol: ProtoRBroadcast, Adversary: AdvSilent, N: 7, F: 2, Seed: 1}
	explicit := implicit
	explicit.MaxRounds = 12 // the rbroadcast default
	if implicit.Digest() != explicit.Digest() {
		t.Fatal("default MaxRounds and explicit default produce different digests")
	}
	longer := implicit
	longer.MaxRounds = 13
	if implicit.Digest() == longer.Digest() {
		t.Fatal("different MaxRounds collided")
	}
}

// digestNeutral names the Scenario fields that select an execution
// strategy, never a result: each is proven bit-identical to the default
// path, so none may move the cache key.
var digestNeutral = []string{"NoFastPath"}

// TestDigestCoversEveryField sets each Scenario field in turn, json:"-"
// ones included, and, under a churned base, each Churn field: every one
// must move the digest except exactly the digestNeutral fields, which
// must not. A new axis that never reaches Digest() would otherwise
// serve a cached result across scenarios that differ in it.
func TestDigestCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(Scenario{})
	neutral := make(map[string]bool, len(digestNeutral))
	for _, name := range digestNeutral {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("digestNeutral names %q, which is no Scenario field", name)
		}
		neutral[name] = true
	}
	base := Scenario{Protocol: ProtoConsensus, Adversary: AdvSilent, N: 7, F: 2, Seed: 1}
	d := base.Digest()
	if len(d) != 64 || strings.ToLower(d) != d {
		t.Fatalf("digest %q is not lowercase hex SHA-256", d)
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		s := base
		perturb(t, name, reflect.ValueOf(&s).Elem().Field(i))
		switch moved := s.Digest() != d; {
		case neutral[name] && moved:
			t.Errorf("Scenario.%s moved the digest, but it is on digestNeutral", name)
		case !neutral[name] && !moved:
			t.Errorf("Scenario.%s does not move the digest: encode it in Digest() (and bump scenarioDigestVersion) or add it to digestNeutral", name)
		}
	}
	churned := base
	churned.Churn = &Churn{FaultyLeaves: 1}
	d = churned.Digest()
	ctyp := reflect.TypeOf(Churn{})
	for i := 0; i < ctyp.NumField(); i++ {
		c := *churned.Churn
		perturb(t, ctyp.Field(i).Name, reflect.ValueOf(&c).Elem().Field(i))
		s := churned
		s.Churn = &c
		if s.Digest() == d {
			t.Errorf("Churn.%s does not move the digest", ctyp.Field(i).Name)
		}
	}
}

// perturb moves v off its current value to one no default resolution
// maps back: numbers go up (a non-positive MaxRounds or Pairs would
// resolve to the default), and a nil struct pointer gets a value whose
// first field is perturbed.
func perturb(t *testing.T, name string, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(v.String() + "-perturbed")
	case reflect.Int:
		v.SetInt(v.Int() + 12345)
	case reflect.Uint64:
		v.SetUint(v.Uint() + 12345)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		perturb(t, name, v.Elem().Field(0))
	default:
		t.Fatalf("%s: no perturbation for a %s field; teach this test the new type", name, v.Type())
	}
}

// TestReportContentDigest: different sweeps do not share a content
// digest (that identical ones do, on every execution strategy, is the
// sweep matrix, TestSweepStrategies).
func TestReportContentDigest(t *testing.T) {
	a := RunAll([]Scenario{{Protocol: ProtoConsensus, Adversary: AdvSilent, N: 7, F: 2, Seed: 1}}, Options{Workers: 1})
	da, err := a.ContentDigest()
	if err != nil {
		t.Fatal(err)
	}
	other := RunAll([]Scenario{{Protocol: ProtoConsensus, Adversary: AdvSilent, N: 7, F: 2, Seed: 2}}, Options{Workers: 1})
	do, err := other.ContentDigest()
	if err != nil {
		t.Fatal(err)
	}
	if do == da {
		t.Fatal("different sweeps collided")
	}
}

// TestContentDigestStreamsCanonicalBytes: the streamed digest is the
// SHA-256 of CanonicalBytes, for reports shorter than one spill chunk,
// an empty one, and the small grid, which spills many times.
func TestContentDigestStreamsCanonicalBytes(t *testing.T) {
	for name, rep := range map[string]*Report{
		"empty": {},
		"one":   RunAll([]Scenario{{Protocol: ProtoConsensus, Adversary: AdvSilent, N: 7, F: 2, Seed: 1}}, Options{Workers: 1}),
		"small": smallGridReport(t),
	} {
		got, err := rep.ContentDigest()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(rep.Canonical())
		if want := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: streamed digest %s, sha256 of the canonical bytes %s", name, got, want)
		}
	}
}

func TestParseChurn(t *testing.T) {
	c, err := ParseChurn("j2,l1,fj1,fl1,w6")
	if err != nil {
		t.Fatal(err)
	}
	if c != (Churn{Joins: 2, Leaves: 1, FaultyJoins: 1, FaultyLeaves: 1, Window: 6}) {
		t.Fatalf("parsed %+v", c)
	}
	if c, err := ParseChurn("none"); err != nil || !c.IsZero() {
		t.Fatalf("none → %+v, %v", c, err)
	}
	for _, bad := range []string{"x1", "j", "j-1", "jj1", "", "j2,j1", "w1,l1,w1"} {
		if _, err := ParseChurn(bad); err == nil {
			t.Errorf("ParseChurn(%q) accepted", bad)
		}
	}
}

// TestChurnLabelRoundTrip: a churn label names every field of its
// spec, so ParseChurn reads it back, and two specs that differ only in
// the window are two cells with two names, aggregated apart.
func TestChurnLabelRoundTrip(t *testing.T) {
	for _, c := range []Churn{
		{Joins: 1},
		{Joins: 1, Window: 5},
		{Leaves: 2, FaultyLeaves: 1, Window: 20},
		{Joins: 2, Leaves: 1, FaultyJoins: 1, FaultyLeaves: 1, Window: 6},
	} {
		if got, err := ParseChurn(c.Label()); err != nil || got != c {
			t.Errorf("ParseChurn(%q) = %+v, %v; want %+v", c.Label(), got, err, c)
		}
	}

	grid := Grid{
		Protocols:   []string{ProtoDynamic},
		Adversaries: []string{AdvSilent},
		Sizes:       []int{7},
		Seeds:       seedRange(1),
		Churns:      []Churn{{Joins: 1, Window: 5}, {Joins: 1, Window: 20}},
	}
	specs := grid.Scenarios()
	if len(specs) != 2 || specs[0].withDefaults().Name == specs[1].withDefaults().Name {
		t.Fatalf("the two windows expand to %d scenarios named alike", len(specs))
	}
	rep := RunAll(specs, Options{Workers: 1})
	if len(rep.Groups) != 2 || rep.Groups[0].Key.Churn == rep.Groups[1].Key.Churn {
		t.Fatalf("the two windows aggregate into %d groups: %+v", len(rep.Groups), rep.Groups)
	}
	for _, g := range rep.Groups {
		if g.Count != 1 {
			t.Errorf("group %q holds %d cells, want 1", g.Key.Churn, g.Count)
		}
	}
}
