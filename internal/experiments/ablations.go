package experiments

import (
	"idonly/internal/adversary"
	"idonly/internal/baseline"
	"idonly/internal/core/consensus"
	"idonly/internal/core/rbroadcast"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// E10 ablates the design choices the paper's correctness rests on:
//
//   - E10a: the silent-member substitution rule of Algorithm 3. With it
//     disabled, Byzantine nodes that participate in initialization and
//     then go silent make every 2nv/3 threshold unreachable and the
//     protocol livelocks (runs into the round cap undecided).
//   - E10b: the duplicate-discarding of the model. The Replay adversary
//     floods re-sent payloads; the table shows how many deliveries the
//     runner drops as within-round duplicates — where each sender's
//     sorted sends meet — while the protocol result is unchanged.
//   - E10c: the failure mode at n = 3f differs between the id-only
//     thresholds (nv/3 relay cascades a forgery) and the known-f
//     Srikanth–Toueg thresholds (f+1 relay resists the same forgery) —
//     both are only *guaranteed* above 3f, but they break differently.
func E10(seed uint64) []Table {
	a := Table{
		ID:      "E10a",
		Title:   "substitution rule ablation (n=7, f=2, staircase adversary)",
		Claim:   "without the substitution rule, laggards livelock once the first node decides and goes silent",
		Columns: []string{"variant", "decided nodes", "correct nodes", "rounds used", "round cap"},
	}
	aRows := pmap(2, func(i int) []any {
		noSub := i == 1
		decided, g, rounds, cap := substitutionRun(seed, noSub)
		name := "Algorithm 3 (with substitution)"
		if noSub {
			name = "ablated (no substitution)"
		}
		return []any{name, decided, g, rounds, cap}
	})
	for _, r := range aRows {
		a.Row(r...)
	}

	b := Table{
		ID:      "E10b",
		Title:   "duplicate discarding under a replay-flood adversary (n=10, f=3)",
		Claim:   "within-round duplicate filtering absorbs replays; outcome unchanged",
		Columns: []string{"adversary", "delivered", "dropped dup", "accepted by all"},
	}
	bRows := pmap(2, func(i int) []any {
		replay := i == 1
		delivered, dropped, ok := replayRun(seed, 10, 3, replay)
		name := "silent"
		if replay {
			name = "replay-flood"
		}
		return []any{name, delivered, dropped, ok}
	})
	for _, r := range bRows {
		b.Row(r...)
	}

	c := Table{
		ID:      "E10c",
		Title:   "failure modes at the n = 3f boundary: forgery attack",
		Claim:   "id-only thresholds cascade a forgery at n = 3f; known-f thresholds resist it",
		Columns: []string{"algorithm", "n", "f", "forgery accepted (runs/10)"},
	}
	for _, f := range []int{2, 3} {
		n := 3 * f
		c.Row("id-only (nv/3)", n, f, forgeViolations(seed, n, f, 10))
		c.Row("Srikanth-Toueg (f+1)", n, f, stForgeViolations(seed, n, f, 10))
	}
	return []Table{a, b, c}
}

// substitutionRun stages the staircase attack: 4 of 5 correct nodes
// hold input 1 and one holds 0; the adversary walks three boosted nodes
// over the prefer/strongprefer thresholds and one lonely node over the
// decide threshold, then goes silent. With the substitution rule the
// laggards finish one phase later; without it their 2nv/3 thresholds
// (nv = 7, reachable only with ≥ 5 senders) are forever short of votes.
func substitutionRun(seed uint64, noSub bool) (decided, g, rounds, cap int) {
	n, f := 7, 2
	rng := ids.NewRand(seed + 70)
	all := ids.Sparse(rng, n)
	correct := all[:n-f]
	faulty := all[n-f:]
	g = len(correct)
	var nodes []*consensus.Node
	var procs []sim.Process
	for i, id := range correct {
		x := 1.0
		if i == len(correct)-1 {
			x = 0
		}
		nd := consensus.NewWithOptions(id, x, consensus.Options{NoSubstitution: noSub})
		nodes = append(nodes, nd)
		procs = append(procs, nd)
	}
	cap = 200
	adv := adversary.ConsStaircase{X: 1, Boost: correct[:3], Lonely: correct[0]}
	run := sim.NewRunner(sim.Config{MaxRounds: cap, StopWhenAllDecided: true},
		procs, faulty, adv)
	m := run.Run(nil)
	for _, nd := range nodes {
		if nd.Decided() {
			decided++
		}
	}
	return decided, g, m.Rounds, cap
}

func replayRun(seed uint64, n, f int, replay bool) (delivered, dropped int64, allAccepted bool) {
	rng := ids.NewRand(seed + 71)
	all := ids.Sparse(rng, n)
	correct := all[:n-f]
	faulty := all[n-f:]
	var nodes []*rbroadcast.Node
	var procs []sim.Process
	for i, id := range correct {
		nd := rbroadcast.New(id, i == 0, "m")
		nodes = append(nodes, nd)
		procs = append(procs, nd)
	}
	var adv sim.Adversary = adversary.Silent{}
	if replay {
		adv = adversary.Replay{}
	}
	run := sim.NewRunner(sim.Config{MaxRounds: 12}, procs, faulty, adv)
	m := run.Run(nil)
	allAccepted = true
	for _, nd := range nodes {
		if _, ok := nd.Accepted("m", correct[0]); !ok {
			allAccepted = false
		}
	}
	return m.MessagesDelivered, m.MessagesDropped, allAccepted
}

func stForgeViolations(seed uint64, n, f, seeds int) int {
	violations := 0
	for _, v := range pmap(seeds, func(s int) bool {
		rng := ids.NewRand(seed + uint64(3000*n+s))
		all := ids.Sparse(rng, n)
		correct := all[:n-f]
		faulty := all[n-f:]
		victim := correct[0]
		var nodes []*baseline.STNode
		var procs []sim.Process
		for _, id := range correct {
			nd := baseline.NewSTNode(id, f, false, "")
			nodes = append(nodes, nd)
			procs = append(procs, nd)
		}
		adv := adversary.STForge{FakeM: "forged", FakeS: victim}
		run := sim.NewRunner(sim.Config{MaxRounds: 30}, procs, faulty, adv)
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
