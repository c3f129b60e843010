package engine

import (
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
		ProtoRBroadcast: "74764f0319d21375dc24c0696b54d3ec5adc0a6789ce004912e17ae2cbd32f50",
		ProtoRotor:      "3a5a0fc94ad162508376edc896a594e49ccd0623a705726c8ac5cd7f193fbf31",
		ProtoConsensus:  "1ff36b7c6e4c938398ed5db395efc2612df216d8cec4f167b3f36d30a30cd42b",
		ProtoApprox:     "382d44a78116891fa37e4c7a8a8bec601eb6098189891b961efe015db24c4ed4",
		ProtoParallel:   "ad495f88fb0f31a05767d23be7eabf03459f2327162f9bcf99d32d56a35529e7",
		ProtoDynamic:    "c24eb3be453b47f29081721194d5bf5ef3891aed59fac2ce2bf16b6c3e799e58",
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
	if got, want := churned.Digest(), "ad03e971108a08f501be9e651834dc3d7d2beea7a0163ea6f284a2bd31317ff0"; got != want {
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

// TestReportContentDigest: identical sweeps share a content digest;
// different sweeps do not.
func TestReportContentDigest(t *testing.T) {
	specs := []Scenario{{Protocol: ProtoConsensus, Adversary: AdvSilent, N: 7, F: 2, Seed: 1}}
	a := RunAll(specs, Options{Workers: 1})
	b := RunAll(specs, Options{Workers: 2})
	da, err := a.ContentDigest()
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.ContentDigest()
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Fatal("content digests differ across worker counts")
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
