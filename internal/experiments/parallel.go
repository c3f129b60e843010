package experiments

import (
	"fmt"
	"reflect"

	"idonly/internal/adversary"
	"idonly/internal/core/parallel"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// E8 measures ParallelConsensus (Algorithm 5) as the number of
// concurrent pairs grows: rounds to completion (should stay O(f),
// independent of k — the instances run in lockstep), total messages
// (linear in k), and the ghost-pair safety property across the three
// injection points of the Theorem 5 case split.
func E8(seed uint64) []Table {
	scale := Table{
		ID:      "E8",
		Title:   "parallel consensus: k concurrent pairs (n=7, f=2, split adversary)",
		Claim:   "termination rounds independent of k; message cost linear in k (Theorem 5)",
		Columns: []string{"k", "rounds", "messages", "msgs/pair", "pairs output"},
	}
	ks := []int{1, 2, 4, 8, 16, 32, 64}
	rows := pmap(len(ks), func(i int) []any {
		k := ks[i]
		rounds, msgs, outputs := parallelRun(seed, 7, 2, k)
		return []any{k, rounds, msgs, float64(msgs) / float64(k), outputs}
	})
	for _, r := range rows {
		scale.Row(r...)
	}

	ghost := Table{
		ID:      "E8b",
		Title:   "ghost pair injection at each discovery window (n=7, f=2)",
		Claim:   "a pair no correct node input is never output (Theorem 5 case split)",
		Columns: []string{"injection point", "runs", "ghost outputs", "real pair intact"},
	}
	names := []string{"input@B", "prefer@C", "strongprefer@D"}
	const runs = 10
	ghostRows := pmap(3, func(kind int) []any {
		type out struct{ ok, g bool }
		outs := pmap(runs, func(s int) out {
			ok, g := ghostRun(seed+uint64(s), kind)
			return out{ok, g}
		})
		ghostOut, intact := 0, 0
		for _, o := range outs {
			if o.g {
				ghostOut++
			}
			if o.ok {
				intact++
			}
		}
		return []any{names[kind], runs, ghostOut, intact}
	})
	for _, r := range ghostRows {
		ghost.Row(r...)
	}
	return []Table{scale, ghost}
}

func parallelRun(seed uint64, n, f, k int) (int, int64, int) {
	rng := ids.NewRand(seed + uint64(13*k))
	all := ids.Sparse(rng, n)
	correct := all[:n-f]
	faulty := all[n-f:]
	var nodes []*parallel.Node
	for _, id := range correct {
		inputs := make(map[parallel.PairID]parallel.Val, k)
		for p := 0; p < k; p++ {
			inputs[parallel.PairID(p+1)] = parallel.V(fmt.Sprintf("v%d", p))
		}
		nodes = append(nodes, parallel.NewNode(id, inputs))
	}
	adv := adversary.ParaSplit{Pair: 1, X1: parallel.V("a"), X2: parallel.V("b"), All: all}
	run := sim.NewRunner(sim.Config{MaxRounds: 80 * (f + 2), StopWhenAllDecided: true},
		nodes, faulty, adv)
	m := run.Run(nil)
	out := nodes[0].Outputs()
	for _, nd := range nodes[1:] {
		if !reflect.DeepEqual(nd.Outputs(), out) {
			panic("experiments: parallel consensus agreement violated")
		}
	}
	return m.Rounds, m.MessagesDelivered, len(out)
}

func ghostRun(seed uint64, kind int) (realIntact, ghostOutput bool) {
	rng := ids.NewRand(seed + 400)
	all := ids.Sparse(rng, 7)
	correct := all[:5]
	faulty := all[5:]
	var nodes []*parallel.Node
	for _, id := range correct {
		nodes = append(nodes, parallel.NewNode(id, map[parallel.PairID]parallel.Val{1: parallel.V("real")}))
	}
	adv := adversary.ParaGhost{Ghost: 666, X: parallel.V("fake"), StartKind: kind}
	run := sim.NewRunner(sim.Config{MaxRounds: 200, StopWhenAllDecided: true}, nodes, faulty, adv)
	run.Run(nil)
	out := nodes[0].Outputs()
	_, ghostOutput = out[666]
	realIntact = out[1] == parallel.V("real")
	return realIntact, ghostOutput
}
