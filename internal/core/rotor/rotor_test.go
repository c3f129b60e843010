package rotor_test

import (
	"testing"

	"idonly/internal/adversary"
	"idonly/internal/core/rotor"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

func buildRotor(seed uint64, n, f int, adv sim.Adversary) (*sim.Runner, []*rotor.Node, []ids.ID, []ids.ID) {
	rng := ids.NewRand(seed)
	all := ids.Sparse(rng, n)
	correct := all[:n-f]
	faulty := all[n-f:]
	var nodes []*rotor.Node
	for i, id := range correct {
		// Distinct opinions, so good rounds are observable.
		nodes = append(nodes, rotor.New(id, float64(i)))
	}
	r := sim.NewRunner(sim.Config{MaxRounds: 5 * n, StopWhenAllDecided: true}, nodes, faulty, adv)
	return r, nodes, correct, faulty
}

// goodRound verifies Theorem 2: a round exists in which every correct
// node accepted the opinion of a common and correct coordinator.
func goodRound(nodes []*rotor.Node, correct []ids.ID) (int, bool) {
	isCorrect := make(map[ids.ID]bool)
	for _, id := range correct {
		isCorrect[id] = true
	}
	// For each round, collect the (coord, opinion) accepted by each node.
	type acc struct {
		coord ids.ID
		x     float64
	}
	byRound := make(map[int]map[ids.ID]acc) // round -> node -> acceptance
	for _, nd := range nodes {
		for _, a := range nd.Accepted() {
			m := byRound[a.Round]
			if m == nil {
				m = make(map[ids.ID]acc)
				byRound[a.Round] = m
			}
			m[nd.ID()] = acc{coord: a.Coord, x: a.X}
		}
	}
	for round, m := range byRound {
		if len(m) != len(nodes) {
			continue
		}
		var first acc
		same := true
		for i, nd := range nodes {
			a := m[nd.ID()]
			if i == 0 {
				first = a
			} else if a != first {
				same = false
				break
			}
		}
		if same && isCorrect[first.coord] {
			return round, true
		}
	}
	return 0, false
}

func TestAllCorrectTerminatesWithGoodRound(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7, 13, 31} {
		r, nodes, correct, _ := buildRotor(11, n, 0, nil)
		r.Run(nil)
		for _, nd := range nodes {
			if !nd.Decided() {
				t.Fatalf("n=%d: node %d did not terminate in %d rounds", n, nd.ID(), r.Round())
			}
			if nd.DoneRound() > n+3 {
				t.Errorf("n=%d: node %d terminated in round %d, want O(n)", n, nd.ID(), nd.DoneRound())
			}
		}
		if n >= 2 {
			if _, ok := goodRound(nodes, correct); !ok {
				t.Errorf("n=%d: no good round witnessed", n)
			}
		}
	}
}

func TestByzantineHiddenInitGoodRoundStillHappens(t *testing.T) {
	for seed := uint64(0); seed < 15; seed++ {
		n, f := 7, 2
		rng := ids.NewRand(seed)
		all := ids.Sparse(rng, n)
		correct := all[:n-f]
		faulty := all[n-f:]
		var nodes []*rotor.Node
		for i, id := range correct {
			nodes = append(nodes, rotor.New(id, float64(i)))
		}
		per := make(map[ids.ID]sim.Adversary)
		for i, id := range faulty {
			per[id] = &adversary.RotorHidden{
				Subset: correct[:1+i], // announce to different partial subsets
				All:    all,
				X1:     100, X2: 200,
			}
		}
		r := sim.NewRunner(sim.Config{MaxRounds: 10 * n, StopWhenAllDecided: true},
			nodes, faulty, adversary.Compose{PerNode: per})
		r.Run(nil)
		for _, nd := range nodes {
			if !nd.Decided() {
				t.Fatalf("seed %d: node %d did not terminate", seed, nd.ID())
			}
		}
		if _, ok := goodRound(nodes, correct); !ok {
			t.Errorf("seed %d: no good round despite n > 3f", seed)
		}
	}
}

func TestForgedGhostsCannotEnterCandidates(t *testing.T) {
	n, f := 10, 3
	rng := ids.NewRand(5)
	all := ids.Sparse(rng, n)
	correct := all[:n-f]
	faulty := all[n-f:]
	ghosts := []ids.ID{888888888888, 888888888889}
	var nodes []*rotor.Node
	for i, id := range correct {
		nodes = append(nodes, rotor.New(id, float64(i)))
	}
	r := sim.NewRunner(sim.Config{MaxRounds: 10 * n, StopWhenAllDecided: true},
		nodes, faulty, adversary.RotorForge{Ghosts: ghosts})
	r.Run(nil)
	ghostSet := map[ids.ID]bool{ghosts[0]: true, ghosts[1]: true}
	for _, nd := range nodes {
		for _, c := range nd.Candidates() {
			if ghostSet[c] {
				t.Fatalf("ghost id %d entered Cv of node %d: only f echoes exist, below 2nv/3", c, nd.ID())
			}
		}
	}
}

func TestTerminationBoundLinear(t *testing.T) {
	// Theorem 2: termination within O(n) rounds; with the f faulty
	// nodes fully participating the candidate set has at most n members,
	// so re-selection happens by round |Cv|+3.
	for _, tc := range []struct{ n, f int }{{4, 1}, {10, 3}, {22, 7}, {31, 10}} {
		r, nodes, _, faulty := buildRotor(9, tc.n, tc.f, adversary.RotorForge{Ghosts: nil})
		_ = faulty
		r.Run(nil)
		for _, nd := range nodes {
			if !nd.Decided() {
				t.Fatalf("n=%d f=%d: node %d did not terminate", tc.n, tc.f, nd.ID())
			}
			if nd.DoneRound() > tc.n+3 {
				t.Errorf("n=%d f=%d: node %d terminated at round %d > n+3", tc.n, tc.f, nd.ID(), nd.DoneRound())
			}
		}
	}
}

func TestSelectionSequencesSharePrefix(t *testing.T) {
	// All correct nodes should select the same coordinator in every
	// round where their candidate sets agree; with no faults the whole
	// sequence is identical.
	r, nodes, _, _ := buildRotor(21, 9, 0, nil)
	r.Run(nil)
	first := nodes[0].Selected()
	for _, nd := range nodes[1:] {
		sel := nd.Selected()
		if len(sel) != len(first) {
			t.Fatalf("selection lengths differ: %d vs %d", len(sel), len(first))
		}
		for i := range sel {
			if sel[i] != first[i] {
				t.Fatalf("selection differs at %d: %d vs %d", i, sel[i], first[i])
			}
		}
	}
}
