package consensus_test

import (
	"testing"

	"idonly/internal/adversary"
	"idonly/internal/core/consensus"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

type setup struct {
	runner  *sim.Runner
	nodes   []*consensus.Node
	correct []ids.ID
	faulty  []ids.ID
}

func buildConsensus(seed uint64, n, f int, inputs func(i int) float64, adv func(all []ids.ID) sim.Adversary) setup {
	rng := ids.NewRand(seed)
	all := ids.Sparse(rng, n)
	correct := all[:n-f]
	faulty := all[n-f:]
	var nodes []*consensus.Node
	for i, id := range correct {
		nodes = append(nodes, consensus.New(id, inputs(i)))
	}
	var a sim.Adversary
	if adv != nil {
		a = adv(all)
	}
	r := sim.NewRunner(sim.Config{MaxRounds: 40 * (f + 2), StopWhenAllDecided: true}, nodes, faulty, a)
	return setup{runner: r, nodes: nodes, correct: correct, faulty: faulty}
}

// checkAgreementValidity asserts every correct node decided a common
// value that was the input of some correct node.
func checkAgreementValidity(t *testing.T, s setup, inputs func(i int) float64) float64 {
	t.Helper()
	if len(s.nodes) == 0 {
		t.Fatal("no nodes")
	}
	for _, nd := range s.nodes {
		if !nd.Decided() {
			t.Fatalf("node %d undecided after %d rounds", nd.ID(), s.runner.Round())
		}
	}
	v := s.nodes[0].Value()
	for _, nd := range s.nodes[1:] {
		if nd.Value() != v {
			t.Fatalf("disagreement: node %d decided %v, node %d decided %v",
				s.nodes[0].ID(), v, nd.ID(), nd.Value())
		}
	}
	valid := false
	for i := range s.nodes {
		if inputs(i) == v {
			valid = true
			break
		}
	}
	if !valid {
		t.Fatalf("decided value %v is no correct node's input", v)
	}
	return v
}

func TestUnanimousDecidesInOnePhase(t *testing.T) {
	for _, tc := range []struct{ n, f int }{{4, 1}, {7, 2}, {13, 4}, {31, 10}} {
		in := func(int) float64 { return 7 }
		s := buildConsensus(13, tc.n, tc.f, in, func(all []ids.ID) sim.Adversary {
			return adversary.ConsInitThenSilent{}
		})
		s.runner.Run(nil)
		checkAgreementValidity(t, s, in)
		// Lemma 8: unanimous inputs terminate at the end of the first
		// phase: 2 init rounds + 5 phase rounds.
		want := consensus.InitRounds + consensus.PhaseRounds
		for _, nd := range s.nodes {
			if nd.DecidedRound() != want {
				t.Errorf("n=%d f=%d: node %d decided in round %d, want %d",
					tc.n, tc.f, nd.ID(), nd.DecidedRound(), want)
			}
		}
	}
}

func TestNoFaultsSplitInputs(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		in := func(i int) float64 { return float64(i % 2) }
		s := buildConsensus(seed, 9, 0, in, nil)
		s.runner.Run(nil)
		checkAgreementValidity(t, s, in)
	}
}

func TestSplitBrainAdversary(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		in := func(i int) float64 { return float64(i % 2) }
		s := buildConsensus(seed, 7, 2, in, func(all []ids.ID) sim.Adversary {
			return adversary.ConsSplit{X1: 0, X2: 1, All: all}
		})
		s.runner.Run(nil)
		checkAgreementValidity(t, s, in)
	}
}

func TestStubbornLiarsCannotOverrideUnanimity(t *testing.T) {
	// All correct nodes start with 3; f stubborn liars push 9. Validity
	// demands the decision be 3.
	for seed := uint64(0); seed < 10; seed++ {
		in := func(int) float64 { return 3 }
		s := buildConsensus(seed, 10, 3, in, func(all []ids.ID) sim.Adversary {
			return adversary.ConsStubborn{X: 9}
		})
		s.runner.Run(nil)
		v := checkAgreementValidity(t, s, in)
		if v != 3 {
			t.Fatalf("seed %d: decided %v, want unanimous input 3", seed, v)
		}
	}
}

func TestLaggardsFinishWithinOnePhase(t *testing.T) {
	// Lemma 10 + substitution rule: after the first correct node
	// terminates, every other correct node terminates by the end of the
	// next phase.
	for seed := uint64(0); seed < 20; seed++ {
		in := func(i int) float64 { return float64(i % 2) }
		s := buildConsensus(seed, 10, 3, in, func(all []ids.ID) sim.Adversary {
			return adversary.ConsSplit{X1: 0, X2: 1, All: all}
		})
		s.runner.Run(nil)
		checkAgreementValidity(t, s, in)
		min, max := 1<<30, 0
		for _, nd := range s.nodes {
			if r := nd.DecidedRound(); r < min {
				min = r
			}
			if r := nd.DecidedRound(); r > max {
				max = r
			}
		}
		if max-min > consensus.PhaseRounds {
			t.Fatalf("seed %d: decision rounds span %d..%d, more than one phase apart", seed, min, max)
		}
	}
}

func TestRoundComplexityLinearInF(t *testing.T) {
	// Theorem 3: O(f) rounds. With the split adversary the decision
	// should come within a small multiple of f phases.
	for _, tc := range []struct{ n, f int }{{4, 1}, {7, 2}, {13, 4}, {25, 8}} {
		in := func(i int) float64 { return float64(i % 2) }
		s := buildConsensus(3, tc.n, tc.f, in, func(all []ids.ID) sim.Adversary {
			return adversary.ConsSplit{X1: 0, X2: 1, All: all}
		})
		s.runner.Run(nil)
		checkAgreementValidity(t, s, in)
		bound := consensus.InitRounds + consensus.PhaseRounds*(2*tc.f+4)
		for _, nd := range s.nodes {
			if nd.DecidedRound() > bound {
				t.Errorf("n=%d f=%d: node %d decided at round %d > O(f) bound %d",
					tc.n, tc.f, nd.ID(), nd.DecidedRound(), bound)
			}
		}
	}
}

func TestSilentByzantineAfterInit(t *testing.T) {
	// The substitution rule must keep thresholds satisfiable when the
	// faulty third of the membership goes silent right after init.
	for seed := uint64(0); seed < 10; seed++ {
		in := func(i int) float64 { return float64(i % 2) }
		s := buildConsensus(seed, 13, 4, in, func(all []ids.ID) sim.Adversary {
			return adversary.ConsInitThenSilent{}
		})
		s.runner.Run(nil)
		checkAgreementValidity(t, s, in)
	}
}

func TestMembershipFrozen(t *testing.T) {
	in := func(int) float64 { return 1 }
	s := buildConsensus(2, 7, 2, in, func(all []ids.ID) sim.Adversary {
		return adversary.ConsInitThenSilent{}
	})
	s.runner.Run(nil)
	for _, nd := range s.nodes {
		if nd.NV() != 7 {
			t.Errorf("node %d froze nv=%d, want 7 (everyone sent during init)", nd.ID(), nd.NV())
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		in := func(i int) float64 { return float64(i % 2) }
		s := buildConsensus(99, 10, 3, in, func(all []ids.ID) sim.Adversary {
			return adversary.ConsSplit{X1: 0, X2: 1, All: all}
		})
		s.runner.Run(nil)
		var out []float64
		for _, nd := range s.nodes {
			out = append(out, nd.Value(), float64(nd.DecidedRound()))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
