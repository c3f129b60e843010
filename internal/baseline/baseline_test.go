package baseline_test

import (
	"math"
	"testing"

	"idonly/internal/adversary"
	"idonly/internal/baseline"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// ---------------------------------------------------------------------
// Srikanth–Toueg broadcast
// ---------------------------------------------------------------------

func TestSTCorrectSourceAccepts(t *testing.T) {
	for _, tc := range []struct{ n, f int }{{4, 1}, {7, 2}, {13, 4}} {
		rng := ids.NewRand(uint64(tc.n))
		all := ids.Sparse(rng, tc.n)
		correct := all[:tc.n-tc.f]
		faulty := all[tc.n-tc.f:]
		var nodes []*baseline.STNode
		for i, id := range correct {
			nodes = append(nodes, baseline.NewSTNode(id, tc.f, i == 0, "m"))
		}
		r := sim.NewRunner(sim.Config{MaxRounds: 8}, nodes, faulty, adversary.Silent{})
		r.Run(nil)
		for _, nd := range nodes {
			round, ok := nd.Accepted("m", correct[0])
			if !ok || round != 3 {
				t.Fatalf("n=%d f=%d: node %d accept=(%d,%v), want round 3", tc.n, tc.f, nd.ID(), round, ok)
			}
		}
	}
}

func TestSTForgeryResistedAboveAndAtBoundary(t *testing.T) {
	// With relay at f+1, f forged echoes never cascade — even at the
	// n = 3f boundary (contrast with E10c's id-only result).
	for _, n := range []int{6, 7} { // 3f and 3f+1 with f=2
		f := 2
		rng := ids.NewRand(uint64(n))
		all := ids.Sparse(rng, n)
		correct := all[:n-f]
		faulty := all[n-f:]
		var nodes []*baseline.STNode
		for _, id := range correct {
			nodes = append(nodes, baseline.NewSTNode(id, f, false, ""))
		}
		adv := adversary.STForge{FakeM: "forged", FakeS: correct[0]}
		r := sim.NewRunner(sim.Config{MaxRounds: 20}, nodes, faulty, adv)
		r.Run(nil)
		for _, nd := range nodes {
			if _, ok := nd.Accepted("forged", correct[0]); ok {
				t.Fatalf("n=%d: ST accepted a forgery with only f echoes", n)
			}
		}
	}
}

// ---------------------------------------------------------------------
// Phase king
// ---------------------------------------------------------------------

func runKing(t *testing.T, seed uint64, n, f int, inputs func(i int) float64, adv sim.Adversary) []*baseline.KingNode {
	t.Helper()
	all := ids.Consecutive(n)
	rng := ids.NewRand(seed)
	perm := rng.Perm(n)
	faultySet := make(map[ids.ID]bool)
	for _, idx := range perm[:f] {
		faultySet[all[idx]] = true
	}
	var nodes []*baseline.KingNode
	var faulty []ids.ID
	i := 0
	for _, id := range all {
		if faultySet[id] {
			faulty = append(faulty, id)
			continue
		}
		nd := baseline.NewKing(id, n, f, inputs(i))
		nodes = append(nodes, nd)
		i++
	}
	r := sim.NewRunner(sim.Config{MaxRounds: 40 * (f + 2), StopWhenAllDecided: true}, nodes, faulty, adv)
	r.Run(nil)
	return nodes
}

func checkKing(t *testing.T, nodes []*baseline.KingNode, inputs func(i int) float64) {
	t.Helper()
	for _, nd := range nodes {
		if !nd.HasOutput() {
			t.Fatalf("king node %d undecided", nd.ID())
		}
		if nd.Value() != nodes[0].Value() {
			t.Fatalf("king disagreement: %v vs %v", nodes[0].Value(), nd.Value())
		}
	}
	valid := false
	for i := range nodes {
		if inputs(i) == nodes[0].Value() {
			valid = true
		}
	}
	if !valid {
		t.Fatalf("king decided %v, no correct node's input", nodes[0].Value())
	}
}

func TestKingUnanimous(t *testing.T) {
	in := func(int) float64 { return 5 }
	nodes := runKing(t, 1, 7, 2, in, adversary.Silent{})
	checkKing(t, nodes, in)
}

func TestKingSplitInputsUnderAttack(t *testing.T) {
	for seed := uint64(0); seed < 15; seed++ {
		in := func(i int) float64 { return float64(i % 2) }
		all := ids.Consecutive(7)
		nodes := runKing(t, seed, 7, 2, in, adversary.KingSplit{X1: 0, X2: 1, All: all})
		checkKing(t, nodes, in)
	}
}

func TestKingStaggeredDecisionsStillFinish(t *testing.T) {
	// The one-phase help rule: decisions at most one phase apart.
	for seed := uint64(0); seed < 15; seed++ {
		in := func(i int) float64 { return float64(i % 2) }
		all := ids.Consecutive(10)
		nodes := runKing(t, seed, 10, 3, in, adversary.KingSplit{X1: 0, X2: 1, All: all})
		checkKing(t, nodes, in)
		min, max := math.MaxInt32, 0
		for _, nd := range nodes {
			if nd.DecidedRound() < min {
				min = nd.DecidedRound()
			}
			if nd.DecidedRound() > max {
				max = nd.DecidedRound()
			}
		}
		if max-min > 5 {
			t.Fatalf("seed %d: decision spread %d..%d exceeds one phase", seed, min, max)
		}
	}
}

func TestKingRoundsBoundedByF(t *testing.T) {
	// f+1 kings guarantee a correct one; with the 5-round phases the
	// decision round is at most 5(f+2).
	for _, tc := range []struct{ n, f int }{{4, 1}, {7, 2}, {13, 4}} {
		in := func(i int) float64 { return float64(i % 2) }
		all := ids.Consecutive(tc.n)
		nodes := runKing(t, 3, tc.n, tc.f, in, adversary.KingSplit{X1: 0, X2: 1, All: all})
		checkKing(t, nodes, in)
		for _, nd := range nodes {
			if nd.DecidedRound() > 5*(tc.f+2) {
				t.Fatalf("n=%d f=%d: decided at %d > 5(f+2)", tc.n, tc.f, nd.DecidedRound())
			}
		}
	}
}

// ---------------------------------------------------------------------
// Known-f approximate agreement
// ---------------------------------------------------------------------

func TestKnownFApproxHalvesRange(t *testing.T) {
	n, f, iters := 10, 3, 10
	rng := ids.NewRand(6)
	all := ids.Sparse(rng, n)
	correct := all[:n-f]
	faulty := all[n-f:]
	var nodes []*baseline.ApproxNode
	var inputs []float64
	for i, id := range correct {
		x := float64(i) * 64
		inputs = append(inputs, x)
		nodes = append(nodes, baseline.NewApprox(id, f, x, iters))
	}
	adv := adversary.ApproxOutlier{Low: -1e5, High: 1e5, All: all}
	r := sim.NewRunner(sim.Config{MaxRounds: iters + 2, StopWhenAllDecided: true}, nodes, faulty, adv)
	r.Run(nil)
	prev := spread(inputs)
	for k := 0; k < iters; k++ {
		var vals []float64
		for _, nd := range nodes {
			vals = append(vals, nd.History[k])
		}
		s := spread(vals)
		if s > prev/2+1e-9 {
			t.Fatalf("iter %d: spread %v > half of %v", k, s, prev)
		}
		prev = s
	}
}

func spread(vals []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return hi - lo
}
