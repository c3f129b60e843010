package engine

import (
	"bytes"
	"testing"

	"idonly/internal/ids"
	"idonly/internal/sim"
)

func TestFastPathEligibility(t *testing.T) {
	cases := []struct {
		name string
		s    Scenario
		want bool
	}{
		{"rbroadcast/none", Scenario{Protocol: ProtoRBroadcast, Adversary: AdvNone, N: 7}, true},
		{"rbroadcast/silent", Scenario{Protocol: ProtoRBroadcast, Adversary: AdvSilent, N: 7, F: 2}, true},
		{"rbroadcast/split", Scenario{Protocol: ProtoRBroadcast, Adversary: AdvSplit, N: 7, F: 2}, true},
		{"rbroadcast/replay", Scenario{Protocol: ProtoRBroadcast, Adversary: AdvReplay, N: 7, F: 2}, true},
		{"consensus/split", Scenario{Protocol: ProtoConsensus, Adversary: AdvSplit, N: 7, F: 2}, true},
		{"parallel/none", Scenario{Protocol: ProtoParallel, Adversary: AdvNone, N: 7}, true},
		{"parallel/split", Scenario{Protocol: ProtoParallel, Adversary: AdvSplit, N: 7, F: 2}, true},
		{"parallel/replay", Scenario{Protocol: ProtoParallel, Adversary: AdvReplay, N: 7, F: 2}, true},
		{"dynamic/silent", Scenario{Protocol: ProtoDynamic, Adversary: AdvSilent, N: 7, F: 2}, true},
		{"dynamic/split", Scenario{Protocol: ProtoDynamic, Adversary: AdvSplit, N: 7, F: 2}, true},
		{"ring/none", Scenario{Protocol: ProtoRing, Adversary: AdvNone, N: 100}, true},
		// Chaos fuzzes with payloads outside the wire unions.
		{"rbroadcast/chaos", Scenario{Protocol: ProtoRBroadcast, Adversary: AdvChaos, N: 7, F: 2}, false},
		{"parallel/chaos", Scenario{Protocol: ProtoParallel, Adversary: AdvChaos, N: 7, F: 2}, false},
		{"dynamic/chaos", Scenario{Protocol: ProtoDynamic, Adversary: AdvChaos, N: 7, F: 2}, false},
		// No wire union for the remaining protocols.
		{"rotor/silent", Scenario{Protocol: ProtoRotor, Adversary: AdvSilent, N: 7, F: 2}, false},
		{"approx/silent", Scenario{Protocol: ProtoApprox, Adversary: AdvSilent, N: 7, F: 2}, false},
		// Churn is the core's own: a churned cell stays on its wire union.
		{"consensus/churned", Scenario{Protocol: ProtoConsensus, Adversary: AdvSilent, N: 7, F: 2,
			Churn: &Churn{FaultyLeaves: 1}}, true},
		{"ring/churned", Scenario{Protocol: ProtoRing, Adversary: AdvReplay, N: 14, F: 4,
			Churn: &Churn{FaultyJoins: 1, FaultyLeaves: 1}}, true},
		// Correct joiners and leavers too: the builder schedules them on either plane.
		{"dynamic/churned", Scenario{Protocol: ProtoDynamic, Adversary: AdvSplit, N: 8, F: 2,
			Churn: &Churn{Joins: 1, Leaves: 1, FaultyJoins: 1, FaultyLeaves: 1}}, true},
		// Chaos still disqualifies, churned or not.
		{"rbroadcast/chaos/churned", Scenario{Protocol: ProtoRBroadcast, Adversary: AdvChaos, N: 7, F: 2,
			Churn: &Churn{FaultyJoins: 1}}, false},
		// Explicit opt-out.
		{"forced-off", Scenario{Protocol: ProtoRBroadcast, Adversary: AdvNone, N: 7, NoFastPath: true}, false},
		// A zero churn spec resolves to nil and stays eligible.
		{"zero-churn", Scenario{Protocol: ProtoRBroadcast, Adversary: AdvNone, N: 7, Churn: &Churn{}}, true},
	}
	for _, tc := range cases {
		// The plane is decided once: the adversary by fastPath, the
		// protocol by its builder, which for rotor and approx is boxed
		// whatever it is asked for.
		s := tc.s.withDefaults()
		all := ids.Sparse(ids.NewRand(s.Seed), s.N)
		pr := buildProtocol(s, all[:s.N-s.F], all, nil, s.churnPlan())
		_, boxed := pr.build(sim.Config{}, nil, nil, s.fastPath()).(*sim.Runner)
		if typed := !boxed; typed != tc.want {
			t.Errorf("%s: runs typed = %v, want %v", tc.name, typed, tc.want)
		}
	}
}

// eligibleSpecs is every fast-path protocol crossed with every
// fast-path adversary at two sizes and three seeds, static and — where
// there are faulty nodes to move — churned: one late faulty join and
// one mid-run faulty removal, and for the dynamic protocol, which has a
// join discipline, a correct joiner and a correct leaver as well.
func eligibleSpecs() []Scenario {
	var specs []Scenario
	faultyChurn := Churn{FaultyJoins: 1, FaultyLeaves: 1}
	add := func(proto string, advs []string, sizes []int, churn Churn) {
		for _, adv := range advs {
			for _, n := range sizes {
				f := (n - 1) / 3
				if adv == AdvNone {
					f = 0
				}
				for seed := uint64(1); seed <= 3; seed++ {
					s := Scenario{Protocol: proto, Adversary: adv, N: n, F: f, Seed: seed}
					specs = append(specs, s)
					if f >= 2 {
						s.Churn = &churn
						specs = append(specs, s)
					}
				}
			}
		}
	}
	all := []string{AdvNone, AdvSilent, AdvSplit, AdvReplay}
	add(ProtoRBroadcast, all, []int{7, 14}, faultyChurn)
	add(ProtoConsensus, all, []int{7, 14}, faultyChurn)
	add(ProtoRing, []string{AdvNone, AdvSilent, AdvReplay}, []int{14, 50}, faultyChurn)
	add(ProtoParallel, all, []int{7, 14}, faultyChurn)
	add(ProtoDynamic, all, []int{8, 11}, Churn{Joins: 1, Leaves: 1, FaultyJoins: 1, FaultyLeaves: 1})
	return specs
}

// TestFastPathMatchesReference pins the whole point of the fast path:
// for every eligible cell, churned ones included, the canonical report
// bytes — results, digests, metrics, aggregates — are identical whether
// the scenario ran on the wire-union instantiation of the simulator
// core or the boxed one (NoFastPath).
func TestFastPathMatchesReference(t *testing.T) {
	specs := eligibleSpecs()
	for _, s := range specs {
		if !s.withDefaults().fastPath() {
			t.Fatalf("spec %+v is not fast-path eligible; fix eligibleSpecs", s)
		}
	}
	fast := RunAll(specs, Options{Workers: 4, Grid: "fastpath"})
	if errs := fast.Errors(); len(errs) != 0 {
		t.Fatalf("fast path produced %d errors, first: %s: %s", len(errs), errs[0].Scenario.Name, errs[0].Err)
	}
	churned, correctJoins := 0, 0
	for _, r := range fast.Results {
		if r.Joins > 0 && r.Leaves > 0 {
			churned++
		}
		if r.Scenario.Protocol == ProtoDynamic && r.Joins > 1 {
			correctJoins++
		}
	}
	if churned == 0 {
		t.Fatal("no eligible cell applied both its faulty join and its removal: the churned half of the comparison is vacuous")
	}
	if correctJoins == 0 {
		t.Fatal("no dynamic cell added a correct joiner: the typed runner's join scheduling is untested")
	}

	ref := make([]Scenario, len(specs))
	copy(ref, specs)
	for i := range ref {
		ref[i].NoFastPath = true
	}
	slow := RunAll(ref, Options{Workers: 4, Grid: "fastpath"})
	if !bytes.Equal(mustCanonical(t, fast), mustCanonical(t, slow)) {
		t.Fatal("canonical reports differ between the fast path and the reference runner")
	}
}

// TestScaleSmokeFastVsReference is the large-n smoke test CI runs: the
// ring workload at n = 10k, fast path against reference, canonical-byte
// identical.
func TestScaleSmokeFastVsReference(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n smoke test")
	}
	variants := []Scenario{
		{Protocol: ProtoRing, Adversary: AdvNone, N: 10000, Seed: 1},
		{Protocol: ProtoRing, Adversary: AdvNone, N: 10000, Seed: 1, NoFastPath: true},
	}
	var want []byte
	for i, s := range variants {
		rep := RunAll([]Scenario{s}, Options{Workers: 1, Grid: "scale-smoke"})
		if errs := rep.Errors(); len(errs) != 0 {
			t.Fatalf("variant %d failed: %s", i, errs[0].Err)
		}
		res := rep.Results[0]
		if !res.AllDecided {
			t.Fatalf("variant %d: ring did not decide everywhere: %+v", i, res)
		}
		got := mustCanonical(t, rep)
		if i == 0 {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("variant %d (noFastPath=%v) diverged from the fast path", i, s.NoFastPath)
		}
	}
}

func TestScalePresetGrid(t *testing.T) {
	g, err := PresetGrid("scale")
	if err != nil {
		t.Fatal(err)
	}
	specs := g.Scenarios()
	if len(specs) != 3 {
		t.Fatalf("scale grid has %d scenarios, want 3", len(specs))
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatalf("scale scenario invalid: %v", err)
		}
		if !s.withDefaults().fastPath() {
			t.Fatalf("scale scenario %q is not fast-path eligible", s.withDefaults().Name)
		}
	}
}

func TestRingValidate(t *testing.T) {
	ok := Scenario{Protocol: ProtoRing, Adversary: AdvNone, N: 1000}
	if err := ok.Validate(); err != nil {
		t.Fatalf("ring/none should validate: %v", err)
	}
	bad := Scenario{Protocol: ProtoRing, Adversary: AdvSplit, N: 1000, F: 333}
	if err := bad.Validate(); err == nil {
		t.Fatal("ring/split should be rejected (no value-targeting attack defined)")
	}
	// Ring stays out of Protocols(): the preset grids and the pinned
	// every-cell coverage iterate that list and must not change.
	for _, p := range Protocols() {
		if p == ProtoRing {
			t.Fatal("ProtoRing must not appear in Protocols()")
		}
	}
}
