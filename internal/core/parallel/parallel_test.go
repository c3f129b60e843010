package parallel_test

import (
	"fmt"
	"reflect"
	"testing"

	"idonly/internal/adversary"
	"idonly/internal/core/parallel"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

func buildParallel(seed uint64, n, f int, inputs func(i int) map[parallel.PairID]parallel.Val,
	adv func(all []ids.ID) sim.Adversary) (*sim.Runner, []*parallel.Node, []ids.ID, []ids.ID) {
	rng := ids.NewRand(seed)
	all := ids.Sparse(rng, n)
	correct := all[:n-f]
	faulty := all[n-f:]
	var nodes []*parallel.Node
	for i, id := range correct {
		nodes = append(nodes, parallel.NewNode(id, inputs(i)))
	}
	var a sim.Adversary
	if adv != nil {
		a = adv(all)
	}
	r := sim.NewRunner(sim.Config{MaxRounds: 60 * (f + 2), StopWhenAllDecided: true}, nodes, faulty, a)
	return r, nodes, correct, faulty
}

func checkParallelAgreement(t *testing.T, nodes []*parallel.Node) map[parallel.PairID]parallel.Val {
	t.Helper()
	first := nodes[0].Outputs()
	for _, nd := range nodes[1:] {
		if got := nd.Outputs(); !reflect.DeepEqual(got, first) {
			t.Fatalf("agreement violated: node %d output %v, node %d output %v",
				nodes[0].ID(), first, nd.ID(), got)
		}
	}
	return first
}

func TestCommonPairsAreOutput(t *testing.T) {
	// Validity: pairs input at every correct node must be output by all.
	for _, k := range []int{1, 2, 5, 16} {
		in := func(i int) map[parallel.PairID]parallel.Val {
			m := make(map[parallel.PairID]parallel.Val)
			for p := 0; p < k; p++ {
				m[parallel.PairID(p+1)] = parallel.V(fmt.Sprintf("v%d", p))
			}
			return m
		}
		r, nodes, _, _ := buildParallel(5, 7, 2, in, func([]ids.ID) sim.Adversary {
			return adversary.ConsInitThenSilent{}
		})
		r.Run(nil)
		out := checkParallelAgreement(t, nodes)
		if len(out) != k {
			t.Fatalf("k=%d: output %d pairs, want %d: %v", k, len(out), k, out)
		}
		for p := 0; p < k; p++ {
			want := parallel.V(fmt.Sprintf("v%d", p))
			if out[parallel.PairID(p+1)] != want {
				t.Fatalf("k=%d: pair %d = %v, want %v", k, p+1, out[parallel.PairID(p+1)], want)
			}
		}
	}
}

func TestPairAtOneNodeOnlyIsConsistent(t *testing.T) {
	// A pair input at a single correct node may be output or dropped —
	// but identically everywhere (agreement), and here, with all other
	// nodes substituting ⊥, it must be dropped.
	in := func(i int) map[parallel.PairID]parallel.Val {
		if i == 0 {
			return map[parallel.PairID]parallel.Val{42: parallel.V("solo")}
		}
		return nil
	}
	r, nodes, _, _ := buildParallel(6, 7, 2, in, func([]ids.ID) sim.Adversary {
		return adversary.ConsInitThenSilent{}
	})
	r.Run(nil)
	out := checkParallelAgreement(t, nodes)
	if len(out) != 0 {
		t.Fatalf("solo pair should cascade to ⊥ and be dropped, got %v", out)
	}
}

func TestGhostPairsNeverOutput(t *testing.T) {
	// Theorem 5 case split: a pair no correct node input, injected by
	// the adversary at each of the three legal discovery points, must
	// never be output.
	for kind := 0; kind <= 2; kind++ {
		in := func(i int) map[parallel.PairID]parallel.Val {
			return map[parallel.PairID]parallel.Val{1: parallel.V("real")}
		}
		r, nodes, _, _ := buildParallel(7, 7, 2, in, func(all []ids.ID) sim.Adversary {
			return adversary.ParaGhost{Ghost: 666, X: parallel.V("fake"), StartKind: kind}
		})
		r.Run(nil)
		out := checkParallelAgreement(t, nodes)
		if _, ok := out[666]; ok {
			t.Fatalf("kind=%d: ghost pair was output: %v", kind, out)
		}
		if out[1] != parallel.V("real") {
			t.Fatalf("kind=%d: real pair lost: %v", kind, out)
		}
	}
}

func TestSplitValuesStillAgree(t *testing.T) {
	// The adversary equivocates values for a pair all correct nodes
	// share; termination + agreement must hold, and validity pins the
	// result to the common input.
	for seed := uint64(0); seed < 10; seed++ {
		in := func(i int) map[parallel.PairID]parallel.Val {
			return map[parallel.PairID]parallel.Val{9: parallel.V("agreed")}
		}
		r, nodes, _, _ := buildParallel(seed, 7, 2, in, func(all []ids.ID) sim.Adversary {
			return adversary.ParaSplit{Pair: 9, X1: parallel.V("a"), X2: parallel.V("b"), All: all}
		})
		r.Run(nil)
		out := checkParallelAgreement(t, nodes)
		if out[9] != parallel.V("agreed") {
			t.Fatalf("seed %d: pair 9 = %v, want common input", seed, out[9])
		}
	}
}

func TestDisjointPairSets(t *testing.T) {
	// Each node contributes its own pair; no pair is common to all, so
	// every pair may be dropped — but agreement must hold and no
	// invented values may appear.
	in := func(i int) map[parallel.PairID]parallel.Val {
		return map[parallel.PairID]parallel.Val{parallel.PairID(100 + i): parallel.V(fmt.Sprintf("own%d", i))}
	}
	r, nodes, _, _ := buildParallel(8, 7, 2, in, func([]ids.ID) sim.Adversary {
		return adversary.ConsInitThenSilent{}
	})
	r.Run(nil)
	out := checkParallelAgreement(t, nodes)
	for id, v := range out {
		i := int(id) - 100
		if i < 0 || i >= len(nodes) || v != parallel.V(fmt.Sprintf("own%d", i)) {
			t.Fatalf("invented output pair %d=%v", id, v)
		}
	}
}

func TestMixedSharedAndPartialPairs(t *testing.T) {
	// Pair 1 shared by all, pair 2 held by half the nodes. Pair 1 must
	// be output with its value; pair 2 must be consistent.
	in := func(i int) map[parallel.PairID]parallel.Val {
		m := map[parallel.PairID]parallel.Val{1: parallel.V("all")}
		if i%2 == 0 {
			m[2] = parallel.V("half")
		}
		return m
	}
	for seed := uint64(0); seed < 5; seed++ {
		r, nodes, _, _ := buildParallel(seed, 10, 3, in, func(all []ids.ID) sim.Adversary {
			return adversary.ParaSplit{Pair: 2, X1: parallel.V("half"), X2: parallel.V("evil"), All: all}
		})
		r.Run(nil)
		out := checkParallelAgreement(t, nodes)
		if out[1] != parallel.V("all") {
			t.Fatalf("seed %d: shared pair wrong: %v", seed, out)
		}
		if v, ok := out[2]; ok && v != parallel.V("half") && v != parallel.V("evil") {
			t.Fatalf("seed %d: pair 2 got invented value %v", seed, v)
		}
	}
}

func TestTerminationWithNoInputsAnywhere(t *testing.T) {
	in := func(i int) map[parallel.PairID]parallel.Val { return nil }
	r, nodes, _, _ := buildParallel(9, 4, 1, in, func([]ids.ID) sim.Adversary {
		return adversary.ConsInitThenSilent{}
	})
	m := r.Run(nil)
	if m.Rounds >= 60*3 {
		t.Fatalf("no-input run did not stop early: %d rounds", m.Rounds)
	}
	out := checkParallelAgreement(t, nodes)
	if len(out) != 0 {
		t.Fatalf("outputs from nothing: %v", out)
	}
}
