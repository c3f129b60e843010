package rbroadcast_test

import (
	"testing"

	"idonly/internal/adversary"
	"idonly/internal/core/rbroadcast"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// build creates n-f correct nodes (first one the source when
// sourceCorrect) over sparse ids, plus f faulty ids driven by adv.
func build(t *testing.T, seed uint64, n, f int, sourceCorrect bool, adv sim.Adversary) (*sim.Runner, []*rbroadcast.Node, []ids.ID, []ids.ID) {
	t.Helper()
	rng := ids.NewRand(seed)
	all := ids.Sparse(rng, n)
	correct := all[:n-f]
	faulty := all[n-f:]
	nodes := make([]*rbroadcast.Node, 0, len(correct))
	for i, id := range correct {
		nodes = append(nodes, rbroadcast.New(id, sourceCorrect && i == 0, "m"))
	}
	r := sim.NewRunner(sim.Config{MaxRounds: 30}, nodes, faulty, adv)
	return r, nodes, correct, faulty
}

func TestCorrectSourceAllAcceptRoundThree(t *testing.T) {
	for _, tc := range []struct{ n, f int }{{4, 1}, {7, 2}, {10, 3}, {13, 4}, {31, 10}} {
		r, nodes, correct, _ := build(t, 42, tc.n, tc.f, true, adversary.Silent{})
		r.Run(func(round int) bool { return round >= 5 })
		for _, nd := range nodes {
			round, ok := nd.Accepted("m", correct[0])
			if !ok {
				t.Fatalf("n=%d f=%d: node %d did not accept", tc.n, tc.f, nd.ID())
			}
			if round != 3 {
				t.Errorf("n=%d f=%d: node %d accepted in round %d, want 3 (Lemma 1)", tc.n, tc.f, nd.ID(), round)
			}
		}
	}
}

func TestNoFaultsSingleNode(t *testing.T) {
	r, nodes, correct, _ := build(t, 1, 1, 0, true, nil)
	r.Run(func(round int) bool { return round >= 5 })
	if _, ok := nodes[0].Accepted("m", correct[0]); !ok {
		t.Fatal("single node must accept its own broadcast")
	}
}

func TestEquivocatingSourceNeverSplitsAcceptance(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		// The first faulty id equivocates between two stories, the
		// second colludes with both.
		rng := ids.NewRand(seed)
		all := ids.Sparse(rng, 7)
		correct := all[:5]
		faulty := all[5:]
		var nodes []*rbroadcast.Node
		for _, id := range correct {
			nodes = append(nodes, rbroadcast.New(id, false, ""))
		}
		src := faulty[0]
		adv := adversary.Compose{
			PerNode: map[ids.ID]sim.Adversary{
				src: adversary.RBEquivocate{M1: "x", M2: "y", Targets: all},
				faulty[1]: adversary.RBColluder{Keys: []rbroadcast.Key{
					{M: "x", S: src}, {M: "y", S: src},
				}},
			},
		}
		runner := sim.NewRunner(sim.Config{MaxRounds: 30}, nodes, faulty, adv)
		runner.Run(nil)

		// Relay/agreement: if any correct node accepted (m, src), all
		// correct nodes must have accepted it within one round.
		for _, m := range []string{"x", "y"} {
			var rounds []int
			for _, nd := range nodes {
				if round, ok := nd.Accepted(m, src); ok {
					rounds = append(rounds, round)
				}
			}
			if len(rounds) != 0 && len(rounds) != len(nodes) {
				t.Fatalf("seed %d: message %q accepted by %d of %d correct nodes", seed, m, len(rounds), len(nodes))
			}
			for _, a := range rounds {
				for _, b := range rounds {
					if a-b > 1 || b-a > 1 {
						t.Fatalf("seed %d: relay violated for %q: accept rounds %v", seed, m, rounds)
					}
				}
			}
		}
	}
}

func TestUnforgeabilityGhostSourceNeverAccepted(t *testing.T) {
	// All f faulty nodes echo a message from a non-existent node id.
	rng := ids.NewRand(7)
	all := ids.Sparse(rng, 10)
	correct := all[:7]
	faulty := all[7:]
	ghost := ids.ID(999999999999)
	var nodes []*rbroadcast.Node
	for _, id := range correct {
		nodes = append(nodes, rbroadcast.New(id, false, ""))
	}
	adv := adversary.RBForgeSource{FakeM: "forged", FakeS: ghost}
	r := sim.NewRunner(sim.Config{MaxRounds: 40}, nodes, faulty, adv)
	r.Run(nil)
	for _, nd := range nodes {
		if _, ok := nd.Accepted("forged", ghost); ok {
			t.Fatalf("node %d accepted a forged message from a ghost source", nd.ID())
		}
	}
}

func TestSelectiveSourceRelayHolds(t *testing.T) {
	// A faulty source sends its initial message to only 2 of 7 correct
	// nodes and keeps echoing it; either everyone accepts (within one
	// round of each other) or nobody does.
	for seed := uint64(0); seed < 20; seed++ {
		rng := ids.NewRand(seed)
		all := ids.Sparse(rng, 10)
		correct := all[:7]
		faulty := all[7:]
		var nodes []*rbroadcast.Node
		for _, id := range correct {
			nodes = append(nodes, rbroadcast.New(id, false, ""))
		}
		src := faulty[0]
		adv := adversary.Compose{
			PerNode: map[ids.ID]sim.Adversary{
				src: adversary.RBSelective{M: "partial", Subset: correct[:2], AlsoEcho: true},
			},
			Default: adversary.Silent{},
		}
		r := sim.NewRunner(sim.Config{MaxRounds: 40}, nodes, faulty, adv)
		r.Run(nil)
		var rounds []int
		for _, nd := range nodes {
			if round, ok := nd.Accepted("partial", src); ok {
				rounds = append(rounds, round)
			}
		}
		if len(rounds) != 0 && len(rounds) != len(nodes) {
			t.Fatalf("seed %d: partial acceptance: %d of %d", seed, len(rounds), len(nodes))
		}
		for _, a := range rounds {
			for _, b := range rounds {
				if a-b > 1 || b-a > 1 {
					t.Fatalf("seed %d: relay bound violated: %v", seed, rounds)
				}
			}
		}
	}
}

func TestMessageComplexityQuadratic(t *testing.T) {
	// Correct source, no faults: total deliveries should be Θ(n²)
	// (present + echo broadcasts), within a small constant of the
	// classical algorithm's 2n² + n.
	for _, n := range []int{4, 8, 16, 32} {
		r, _, _, _ := build(t, 3, n, 0, true, nil)
		r.Run(func(round int) bool { return round >= 4 })
		got := r.Metrics().MessagesDelivered
		upper := int64(4 * n * n)
		if got > upper {
			t.Errorf("n=%d: %d deliveries, want <= %d", n, got, upper)
		}
	}
}

// TestJunkSenderCountsTowardNV: a payload outside Algorithm 1's alphabet
// (a chaos adversary's junk) classifies as nothing, but its sender was
// heard from, so it still counts toward nv.
func TestJunkSenderCountsTowardNV(t *testing.T) {
	nd := rbroadcast.New(10, false, "")
	nd.Step(1, nil)
	nd.Step(2, []sim.Message{
		{From: 10, Payload: rbroadcast.Present{}},
		{From: 30, Payload: struct{ A int }{A: 4}},
		{From: 40, Payload: "junk"},
	})
	if got := nd.NV(); got != 3 {
		t.Fatalf("nv = %d after one Present and two junk senders, want 3", got)
	}
	if len(nd.AcceptedKeys()) != 0 {
		t.Fatalf("junk produced accepted keys %v", nd.AcceptedKeys())
	}
}
