package experiments

import (
	"idonly/internal/adversary"
	"idonly/internal/core/rotor"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// E3 measures rotor-coordinator termination and the good-round
// guarantee (Theorem 2): every correct node terminates within O(n)
// rounds and witnesses a round in which all correct nodes accepted the
// opinion of a common, correct coordinator — under partially hidden
// Byzantine announcers, the hardest case for candidate-set agreement.
func E3(seed uint64) []Table {
	t := Table{
		ID:      "E3",
		Title:   "rotor-coordinator: termination round and good-round rate",
		Claim:   "termination in O(n) rounds with a guaranteed good round (Theorem 2, Lemma 7)",
		Columns: []string{"n", "f", "max term round", "bound n+3", "good-round runs", "seeds"},
	}
	const seeds = 8
	cases := []struct{ n, f int }{{4, 1}, {7, 2}, {13, 4}, {22, 7}, {31, 10}, {61, 20}}
	rows := pmap(len(cases), func(i int) []any {
		tc := cases[i]
		type out struct {
			term int
			good bool
		}
		runs := pmap(seeds, func(s int) out {
			term, ok := rotorRun(seed+uint64(s), tc.n, tc.f)
			return out{term, ok}
		})
		maxTerm, good := 0, 0
		for _, r := range runs {
			maxTerm = max(maxTerm, r.term)
			if r.good {
				good++
			}
		}
		return []any{tc.n, tc.f, maxTerm, tc.n + 3, good, seeds}
	})
	for _, r := range rows {
		t.Row(r...)
	}
	return []Table{t}
}

// rotorRun executes one rotor instance with hidden-init adversaries and
// returns the max termination round and whether a good round occurred.
func rotorRun(seed uint64, n, f int) (int, bool) {
	rng := ids.NewRand(seed + uint64(31*n))
	all := ids.Sparse(rng, n)
	correct := all[:n-f]
	faulty := all[n-f:]
	var nodes []*rotor.Node
	var procs []sim.Process
	for i, id := range correct {
		nd := rotor.New(id, float64(i))
		nodes = append(nodes, nd)
		procs = append(procs, nd)
	}
	per := make(map[ids.ID]sim.Adversary)
	for i, id := range faulty {
		subset := correct[:1+i%len(correct)]
		per[id] = &adversary.RotorHidden{Subset: subset, All: all, X1: -1, X2: -2}
	}
	run := sim.NewRunner(sim.Config{MaxRounds: 10 * n, StopWhenAllDecided: true},
		procs, faulty, adversary.Compose{PerNode: per})
	run.Run(nil)

	maxTerm := 0
	for _, nd := range nodes {
		maxTerm = max(maxTerm, nd.DoneRound())
	}
	return maxTerm, hasGoodRound(nodes, correct)
}

// hasGoodRound checks Theorem 2's good-round condition.
func hasGoodRound(nodes []*rotor.Node, correct []ids.ID) bool {
	if len(nodes) == 1 {
		return true
	}
	isCorrect := make(map[ids.ID]bool)
	for _, id := range correct {
		isCorrect[id] = true
	}
	type acc struct {
		coord ids.ID
		x     float64
	}
	byRound := make(map[int]map[ids.ID]acc)
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
	for _, m := range byRound {
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
			return true
		}
	}
	return false
}
