package consensus_test

import (
	"testing"

	"idonly/internal/core/consensus"
	"idonly/internal/core/rotor"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// Edge cases: tiny systems and real-valued (non-binary) opinions. The
// paper deliberately uses real-valued inputs so the same algorithm can
// later order arbitrary events (§VII).

func TestSingleNodeDecidesItsOwnInput(t *testing.T) {
	nd := consensus.New(42, 3.14)
	r := sim.NewRunner(sim.Config{StopWhenAllDecided: true}, []sim.Process{nd}, nil, nil)
	r.Run(nil)
	if !nd.Decided() || nd.Value() != 3.14 {
		t.Fatalf("single node: decided=%v value=%v", nd.Decided(), nd.Value())
	}
}

func TestTwoNodesNoFaults(t *testing.T) {
	// n=2, f=0 satisfies n > 3f; both must agree on one of the inputs.
	a := consensus.New(10, 1)
	b := consensus.New(20, 2)
	r := sim.NewRunner(sim.Config{StopWhenAllDecided: true}, []sim.Process{a, b}, nil, nil)
	r.Run(nil)
	if !a.Decided() || !b.Decided() {
		t.Fatal("two-node system did not decide")
	}
	if a.Value() != b.Value() {
		t.Fatalf("disagreement: %v vs %v", a.Value(), b.Value())
	}
	if v := a.Value(); v != 1 && v != 2 {
		t.Fatalf("invented value %v", v)
	}
}

func TestRealValuedInputsDistinct(t *testing.T) {
	// Every node has a distinct real input; agreement + validity over
	// reals: the decision is some correct node's input.
	for seed := uint64(0); seed < 10; seed++ {
		rng := ids.NewRand(seed)
		all := ids.Sparse(rng, 7)
		inputs := make([]float64, 7)
		var nodes []*consensus.Node
		for i, id := range all {
			inputs[i] = 100*rng.Float64() + float64(i)
			nodes = append(nodes, consensus.New(id, inputs[i]))
		}
		r := sim.NewRunner(sim.Config{StopWhenAllDecided: true}, nodes, nil, nil)
		r.Run(nil)
		v := nodes[0].Value()
		valid := false
		for _, nd := range nodes {
			if !nd.Decided() || nd.Value() != v {
				t.Fatalf("seed %d: agreement broken", seed)
			}
		}
		for _, in := range inputs {
			if in == v {
				valid = true
			}
		}
		if !valid {
			t.Fatalf("seed %d: decided %v not among inputs %v", seed, v, inputs)
		}
	}
}

func TestDistinctRealsNeverAverage(t *testing.T) {
	// Consensus must pick one value, never blend (contrast with
	// approximate agreement). With inputs {1, 2, 4} the decision must be
	// exactly one of them.
	rng := ids.NewRand(4)
	all := ids.Sparse(rng, 3)
	inputs := []float64{1, 2, 4}
	var nodes []*consensus.Node
	for i, id := range all {
		nodes = append(nodes, consensus.New(id, inputs[i]))
	}
	r := sim.NewRunner(sim.Config{StopWhenAllDecided: true}, nodes, nil, nil)
	r.Run(nil)
	v := nodes[0].Value()
	if v != 1 && v != 2 && v != 4 {
		t.Fatalf("blended decision %v", v)
	}
}

func TestPhaseStructureConstants(t *testing.T) {
	if consensus.PhaseRounds != 5 || consensus.InitRounds != 2 {
		t.Fatal("phase structure constants changed — Theorem 6's finality constant depends on them")
	}
}

func TestCoordinatorAdoptionCounter(t *testing.T) {
	// With unanimous inputs nobody ever adopts a coordinator opinion.
	rng := ids.NewRand(8)
	all := ids.Sparse(rng, 4)
	var nodes []*consensus.Node
	for _, id := range all {
		nodes = append(nodes, consensus.New(id, 9))
	}
	r := sim.NewRunner(sim.Config{StopWhenAllDecided: true}, nodes, nil, nil)
	r.Run(nil)
	for _, nd := range nodes {
		if nd.CoordinatorAdoptions() != 0 {
			t.Fatalf("unanimous run adopted a coordinator opinion %d times", nd.CoordinatorAdoptions())
		}
	}
}

// TestJunkSenderJoinsMembership: a sender whose only initialization-round
// message lies outside the wire union (a chaos adversary's junk) was
// still heard from, so it is in the membership frozen at round 3.
func TestJunkSenderJoinsMembership(t *testing.T) {
	nd := consensus.New(10, 1)
	nd.Step(1, nil)
	nd.Step(2, []sim.Message{
		{From: 10, Payload: rotor.Init{}},
		{From: 77, Payload: "junk"},
	})
	nd.Step(3, nil)
	if got := nd.NV(); got != 2 {
		t.Fatalf("frozen nv = %d with one Init sender and one junk sender, want 2", got)
	}
}
