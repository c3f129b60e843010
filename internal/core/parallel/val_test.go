package parallel_test

import (
	"testing"
	"testing/quick"

	"idonly/internal/adversary"
	"idonly/internal/core/parallel"
	"idonly/internal/core/rotor"
	"idonly/internal/ids"
	"idonly/internal/quorum"
	"idonly/internal/sim"
)

func TestValSemantics(t *testing.T) {
	if !parallel.Bot.Bot {
		t.Fatal("Bot must be ⊥")
	}
	if parallel.V("x").Bot {
		t.Fatal("V must not be ⊥")
	}
	if parallel.V("x") != parallel.V("x") {
		t.Fatal("Val must be comparable by value")
	}
	if parallel.V("") == parallel.Bot {
		t.Fatal("empty string must differ from ⊥")
	}
}

func TestValComparableProperty(t *testing.T) {
	// Val round-trips through map keys (the dedup and tally machinery
	// depends on this).
	f := func(s string, bot bool) bool {
		v := parallel.Val{S: s, Bot: bot}
		m := map[parallel.Val]int{v: 1}
		return m[parallel.Val{S: s, Bot: bot}] == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStaggeredDecisionsAcrossInstances(t *testing.T) {
	// Different instances may decide in different phases (one is
	// attacked, one is not); the machine must keep undecided instances
	// alive while decided ones go silent, and all nodes must converge.
	for seed := uint64(0); seed < 8; seed++ {
		in := func(i int) map[parallel.PairID]parallel.Val {
			return map[parallel.PairID]parallel.Val{
				1: parallel.V("clean"),
				2: parallel.V("contested"),
			}
		}
		r, nodes, _, _ := buildParallel(seed, 7, 2, in, func(all []ids.ID) sim.Adversary {
			return adversary.ParaSplit{Pair: 2, X1: parallel.V("contested"), X2: parallel.V("evil"), All: all}
		})
		r.Run(nil)
		out := checkParallelAgreement(t, nodes)
		if out[1] != parallel.V("clean") {
			t.Fatalf("seed %d: clean pair corrupted: %v", seed, out)
		}
		if v, ok := out[2]; ok && v != parallel.V("contested") && v != parallel.V("evil") {
			t.Fatalf("seed %d: invented value for contested pair: %v", seed, v)
		}
	}
}

func TestOutputRoundsWithinTheoremBound(t *testing.T) {
	// Theorem 5 / Theorem 6 accounting: every instance decides within
	// 2 init rounds + 5·(f'+1) phase rounds... the finality rule uses
	// 5|S|/2 + 2 with |S| > 2f ⇒ check the concrete 5f+2-ish bound.
	n, f := 7, 2
	in := func(i int) map[parallel.PairID]parallel.Val {
		return map[parallel.PairID]parallel.Val{5: parallel.V("v")}
	}
	r, nodes, _, _ := buildParallel(3, n, f, in, func(all []ids.ID) sim.Adversary {
		return adversary.ParaSplit{Pair: 5, X1: parallel.V("v"), X2: parallel.V("w"), All: all}
	})
	r.Run(nil)
	bound := 2 + 5*(n/2) // the Theorem 6 finality allowance with |S| = n
	for _, nd := range nodes {
		for id, round := range nd.Machine().OutputRounds() {
			if round > bound {
				t.Fatalf("pair %d decided at machine round %d > bound %d", id, round, bound)
			}
		}
	}
}

func TestMachineMembershipFilter(t *testing.T) {
	// The dynamic protocol's "with respect to S": a machine constructed
	// with a member filter must ignore outsiders entirely.
	rng := ids.NewRand(4)
	all := ids.Sparse(rng, 5)
	members := all[:4]
	outsider := all[4]

	var idx quorum.Index
	m := parallel.NewMachine(members[0], map[parallel.PairID]parallel.Val{1: parallel.V("x")}, membersIn(&idx, members))
	m.Step(&idx, nil) // round 1
	// round 2 inbox: inits from members and the outsider
	var inbox []sim.MsgT[parallel.Wire]
	for _, id := range all {
		inbox = append(inbox, sim.MsgT[parallel.Wire]{From: id, Payload: wire(rotor.Init{})})
	}
	m.Step(&idx, inbox)
	m.Step(&idx, nil) // round 3: freeze
	if m.NV() != 4 {
		t.Fatalf("nv = %d, want 4 (outsider %d filtered)", m.NV(), outsider)
	}
}
