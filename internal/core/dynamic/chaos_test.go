package dynamic_test

import (
	"fmt"
	"testing"

	"idonly/internal/adversary"
	"idonly/internal/core/dynamic"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// The chaos fuzzer against the full dynamic stack: arbitrary well-typed
// garbage (including mis-tagged session traffic, fake events, stray
// acks) must never break chain-prefix or produce a premature harvest,
// and the correct nodes must keep ordering their own events.
func TestChaosAgainstDynamicOrder(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		rng := ids.NewRand(seed)
		all := ids.Sparse(rng, 7)
		correct := all[:5]
		faulty := all[5:]
		var nodes []*dynamic.Node
		for i, id := range correct {
			witness := make(map[int][]string)
			for r := 1; r <= 40; r++ {
				if r%5 == i {
					witness[r] = []string{fmt.Sprintf("e%d-%d", i, r)}
				}
			}
			nodes = append(nodes, dynamic.New(dynamic.Config{ID: id, Founders: all, Witness: witness}))
		}
		r := sim.NewRunner(sim.Config{MaxRounds: 60}, nodes, faulty, adversary.NewChaos(seed, all))
		r.Run(nil)
		for i := range nodes {
			if nodes[i].HarvestGap() {
				t.Fatalf("seed %d: chaos caused a premature harvest", seed)
			}
			for j := i + 1; j < len(nodes); j++ {
				if !chainPrefix(nodes[i].Chain(), nodes[j].Chain()) {
					t.Fatalf("seed %d: chaos broke chain-prefix:\n%v\n%v",
						seed, nodes[i].Chain(), nodes[j].Chain())
				}
			}
		}
		if len(nodes[0].Chain()) == 0 {
			t.Fatalf("seed %d: no progress under chaos", seed)
		}
		// no event may be attributed to a correct witness that never
		// submitted it
		correctSet := make(map[ids.ID]bool)
		for _, id := range correct {
			correctSet[id] = true
		}
		for _, e := range nodes[0].Chain() {
			if correctSet[e.Node] && len(e.M) > 0 && e.M[0] != 'e' {
				t.Fatalf("seed %d: event %q forged for correct witness %d", seed, e.M, e.Node)
			}
		}
	}
}

// A joiner arriving while the chaos adversary is active must still
// synchronize (majority acks beat the garbage) or, at worst, stay out —
// it must never desynchronize into a wrong round and break prefix.
func TestChaosJoinerStillSynchronizes(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		rng := ids.NewRand(seed + 50)
		all := ids.Sparse(rng, 7)
		correct := all[:5]
		faulty := all[5:]
		var nodes []*dynamic.Node
		for _, id := range correct {
			nodes = append(nodes, dynamic.New(dynamic.Config{ID: id, Founders: all}))
		}
		r := sim.NewRunner(sim.Config{MaxRounds: 40}, nodes, faulty, adversary.NewChaos(seed, all))
		joiner := dynamic.New(dynamic.Config{ID: ids.Sparse(ids.NewRand(seed+500), 1)[0]})
		r.ScheduleJoin(8, joiner)
		r.Run(nil)
		if joiner.Round() != nodes[0].Round() {
			t.Fatalf("seed %d: joiner desynchronized: %d vs %d", seed, joiner.Round(), nodes[0].Round())
		}
	}
}
