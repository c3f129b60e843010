package experiments

import (
	"idonly/internal/adversary"
	"idonly/internal/baseline"
	"idonly/internal/core/rbroadcast"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// E1 compares id-only reliable broadcast (Algorithm 1) with the
// classical Srikanth–Toueg broadcast that knows n and f: acceptance
// round and message complexity across system sizes, with the full
// complement of Byzantine nodes silent (worst case for nv: thresholds
// run over correct counts only).
//
// Paper claim (§XII): "the message complexity of reliable broadcast is
// unaffected compared to the original algorithm" and acceptance in
// round 3 for a correct source (Lemma 1).
func E1(seed uint64) []Table {
	t := Table{
		ID:    "E1",
		Title: "reliable broadcast: id-only (Alg. 1) vs Srikanth–Toueg (known n, f)",
		Claim: "same resiliency and acceptance round; message complexity within a small constant",
		Columns: []string{"n", "f", "idonly accept rnd", "ST accept rnd",
			"idonly msgs", "ST msgs", "msg ratio"},
	}
	sizes := []int{4, 7, 13, 31, 61, 100}
	rows := pmap(len(sizes), func(i int) []any {
		n := sizes[i]
		f := (n - 1) / 3
		rng := ids.NewRand(seed + uint64(n))
		all := ids.Sparse(rng, n)
		correct := all[:n-f]
		faulty := all[n-f:]

		// id-only run
		var ioNodes []*rbroadcast.Node
		for i, id := range correct {
			ioNodes = append(ioNodes, rbroadcast.New(id, i == 0, "m"))
		}
		ioRun := sim.NewRunner(sim.Config{MaxRounds: 10}, ioNodes, faulty, adversary.Silent{})
		ioRun.Run(func(r int) bool { return r >= 5 })
		ioRound := -1
		for _, nd := range ioNodes {
			if r, ok := nd.Accepted("m", correct[0]); ok {
				ioRound = max(ioRound, r)
			} else {
				ioRound = -2
			}
		}

		// Srikanth–Toueg run
		var stNodes []*baseline.STNode
		for i, id := range correct {
			stNodes = append(stNodes, baseline.NewSTNode(id, f, i == 0, "m"))
		}
		stRun := sim.NewRunner(sim.Config{MaxRounds: 10}, stNodes, faulty, adversary.Silent{})
		stRun.Run(func(r int) bool { return r >= 5 })
		stRound := -1
		for _, nd := range stNodes {
			if r, ok := nd.Accepted("m", correct[0]); ok {
				stRound = max(stRound, r)
			} else {
				stRound = -2
			}
		}

		ioMsgs := ioRun.Metrics().MessagesDelivered
		stMsgs := stRun.Metrics().MessagesDelivered
		ratio := float64(ioMsgs) / float64(max(int(stMsgs), 1))
		return []any{n, f, ioRound, stRound, ioMsgs, stMsgs, ratio}
	})
	for _, r := range rows {
		t.Row(r...)
	}
	return []Table{t}
}

// E2 probes the resiliency boundary with the unforgeability attack: f
// colluders echo a message attributed to a correct node that never
// sent it. At n = 3f+1 the attack must always fail (Theorem 1); at
// n = 3f the nv/3 relay threshold equals the number of colluders and
// the forgery cascades — the optimality half of the theorem.
func E2(seed uint64) []Table {
	t := Table{
		ID:      "E2",
		Title:   "unforgeability attack: violation rate at n = 3f vs n = 3f+1",
		Claim:   "n > 3f is exactly the resiliency boundary (Theorem 1, optimal)",
		Columns: []string{"f", "n=3f+1 violations", "n=3f violations", "seeds"},
	}
	const seeds = 10
	fs := []int{1, 2, 3, 4, 5}
	rows := pmap(len(fs), func(i int) []any {
		f := fs[i]
		safe := forgeViolations(seed, 3*f+1, f, seeds)
		tight := forgeViolations(seed, 3*f, f, seeds)
		return []any{f, safe, tight, seeds}
	})
	for _, r := range rows {
		t.Row(r...)
	}
	return []Table{t}
}

// forgeViolations counts, over the given number of seeds, runs in
// which some correct node accepted the forged key. The seeds fan out
// across the engine pool; each run derives its ids from its own seed.
func forgeViolations(seed uint64, n, f, seeds int) int {
	violations := 0
	for _, v := range pmap(seeds, func(s int) bool {
		rng := ids.NewRand(seed + uint64(1000*n+s))
		all := ids.Sparse(rng, n)
		correct := all[:n-f]
		faulty := all[n-f:]
		victim := correct[0] // forge a message "from" this correct node
		var nodes []*rbroadcast.Node
		for _, id := range correct {
			nodes = append(nodes, rbroadcast.New(id, false, ""))
		}
		adv := adversary.RBForgeSource{FakeM: "forged", FakeS: victim}
		run := sim.NewRunner(sim.Config{MaxRounds: 30}, nodes, faulty, adv)
		run.Run(nil)
		for _, nd := range nodes {
			if _, ok := nd.Accepted("forged", victim); ok {
				return true
			}
		}
		return false
	}) {
		if v {
			violations++
		}
	}
	return violations
}
