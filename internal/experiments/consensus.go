package experiments

import (
	"idonly/internal/adversary"
	"idonly/internal/baseline"
	"idonly/internal/core/consensus"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// E4 measures consensus round complexity against f (Theorem 3: O(f)
// rounds) in two workloads: unanimous inputs (Lemma 8: one phase) and
// split inputs under the strongest value-targeting adversary.
func E4(seed uint64) []Table {
	t := Table{
		ID:    "E4",
		Title: "consensus rounds vs f (n = 3f+1)",
		Claim: "O(f) rounds; unanimous inputs decide in one phase (Theorem 3, Lemma 8)",
		Columns: []string{"f", "n", "unanimous rounds", "split rounds (max)",
			"split phases (max)", "messages"},
	}
	fs := []int{1, 2, 3, 4, 6, 8, 10}
	rows := pmap(len(fs), func(i int) []any {
		f := fs[i]
		n := 3*f + 1
		// unanimous
		uniRounds, _, _ := consensusRun(seed, n, f, func(int) float64 { return 1 },
			func(all []ids.ID) sim.Adversary { return adversary.ConsInitThenSilent{} })
		// split under attack
		splitRounds, splitPhases, msgs := consensusRun(seed, n, f, func(i int) float64 { return float64(i % 2) },
			func(all []ids.ID) sim.Adversary { return adversary.ConsSplit{X1: 0, X2: 1, All: all} })
		return []any{f, n, uniRounds, splitRounds, splitPhases, msgs}
	})
	for _, r := range rows {
		t.Row(r...)
	}
	return []Table{t}
}

// consensusRun executes one id-only consensus instance; it returns the
// max decision round, max phases, and delivered messages. It panics on
// an agreement or validity violation (experiments double as checkers).
func consensusRun(seed uint64, n, f int, input func(i int) float64,
	advf func(all []ids.ID) sim.Adversary) (int, int, int64) {
	rng := ids.NewRand(seed + uint64(17*n+f))
	all := ids.Sparse(rng, n)
	correct := all[:n-f]
	faulty := all[n-f:]
	var nodes []*consensus.Node
	for i, id := range correct {
		nodes = append(nodes, consensus.New(id, input(i)))
	}
	var adv sim.Adversary
	if len(faulty) > 0 {
		adv = advf(all)
	}
	run := sim.NewRunner(sim.Config{MaxRounds: 60 * (f + 2), StopWhenAllDecided: true},
		nodes, faulty, adv)
	m := run.Run(nil)

	maxRound, maxPhases := 0, 0
	for _, nd := range nodes {
		if !nd.Decided() {
			panic("experiments: consensus did not terminate")
		}
		if nd.Value() != nodes[0].Value() {
			panic("experiments: consensus agreement violated")
		}
		maxRound = max(maxRound, nd.DecidedRound())
		maxPhases = max(maxPhases, nd.Phases())
	}
	return maxRound, maxPhases, m.MessagesDelivered
}

// E5 compares id-only consensus with the phase-king baseline under
// matched conditions: same (n, f), same inputs, equivalent split-brain
// adversaries. The paper's §XII position is that losing the knowledge
// of n and f costs essentially nothing.
func E5(seed uint64) []Table {
	t := Table{
		ID:    "E5",
		Title: "id-only consensus (Alg. 3) vs phase king (known n, f, consecutive ids)",
		Claim: "resiliency and asymptotic cost unchanged without knowing n and f (§XII)",
		Columns: []string{"n", "f", "idonly rounds", "king rounds",
			"idonly msgs", "king msgs", "msg ratio"},
	}
	cases := []struct{ n, f int }{{4, 1}, {7, 2}, {13, 4}, {19, 6}, {25, 8}}
	rows := pmap(len(cases), func(i int) []any {
		tc := cases[i]
		ioRounds, _, ioMsgs := consensusRun(seed, tc.n, tc.f,
			func(i int) float64 { return float64(i % 2) },
			func(all []ids.ID) sim.Adversary { return adversary.ConsSplit{X1: 0, X2: 1, All: all} })
		kRounds, kMsgs := kingRun(seed, tc.n, tc.f)
		return []any{tc.n, tc.f, ioRounds, kRounds, ioMsgs, kMsgs,
			float64(ioMsgs) / float64(max(int(kMsgs), 1))}
	})
	for _, r := range rows {
		t.Row(r...)
	}
	return []Table{t}
}

// kingRun executes phase-king consensus with consecutive ids 1..n, the
// last f of which are faulty, under the matched split adversary.
func kingRun(seed uint64, n, f int) (int, int64) {
	all := ids.Consecutive(n)
	// Place the faulty ids deterministically pseudo-randomly so kings
	// are not always correct-first.
	rng := ids.NewRand(seed + uint64(7*n+f))
	perm := rng.Perm(n)
	faultySet := make(map[ids.ID]bool, f)
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
		nodes = append(nodes, baseline.NewKing(id, n, f, float64(i%2)))
		i++
	}
	run := sim.NewRunner(sim.Config{MaxRounds: 60 * (f + 2), StopWhenAllDecided: true},
		nodes, faulty, adversary.KingSplit{X1: 0, X2: 1, All: all})
	m := run.Run(nil)
	maxRound := 0
	for _, nd := range nodes {
		if !nd.HasOutput() {
			panic("experiments: phase king did not terminate")
		}
		if nd.Value() != nodes[0].Value() {
			panic("experiments: phase king agreement violated")
		}
		maxRound = max(maxRound, nd.DecidedRound())
	}
	return maxRound, m.MessagesDelivered
}
