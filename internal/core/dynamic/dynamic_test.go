package dynamic_test

import (
	"fmt"
	"testing"

	"idonly/internal/adversary"
	"idonly/internal/core/dynamic"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// chainPrefix checks the chain-prefix property: one chain must be a
// prefix of the other.
func chainPrefix(a, b []dynamic.Event) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func buildDynamic(seed uint64, n, f int, witness func(i int) map[int][]string,
	adv sim.Adversary, rounds int) ([]*dynamic.Node, *sim.Runner) {
	rng := ids.NewRand(seed)
	all := ids.Sparse(rng, n)
	correct := all[:n-f]
	faulty := all[n-f:]
	var nodes []*dynamic.Node
	for i, id := range correct {
		nodes = append(nodes, dynamic.New(dynamic.Config{ID: id, Founders: all, Witness: witness(i)}))
	}
	r := sim.NewRunner(sim.Config{MaxRounds: rounds}, nodes, faulty, adv)
	return nodes, r
}

func TestChainPrefixAndGrowthNoFaults(t *testing.T) {
	witness := func(i int) map[int][]string {
		m := make(map[int][]string)
		for r := 1; r <= 20; r++ {
			if r%3 == i%3 { // staggered submissions
				m[r] = []string{fmt.Sprintf("e%d-%d", i, r)}
			}
		}
		return m
	}
	nodes, r := buildDynamic(1, 4, 0, witness, nil, 60)
	var growth []int
	r.Run(func(round int) bool {
		growth = append(growth, len(nodes[0].Chain()))
		return false
	})
	// chain-prefix across all pairs
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			if !chainPrefix(nodes[i].Chain(), nodes[j].Chain()) {
				t.Fatalf("chain-prefix violated between %d and %d:\n%v\n%v",
					nodes[i].ID(), nodes[j].ID(), nodes[i].Chain(), nodes[j].Chain())
			}
		}
	}
	// chain-growth: the chain length is non-decreasing and ends positive
	last := 0
	for _, g := range growth {
		if g < last {
			t.Fatalf("chain shrank: %v", growth)
		}
		last = g
	}
	if last == 0 {
		t.Fatal("chain never grew despite submitted events")
	}
	// every ordered event was genuinely witnessed by a correct node
	for _, e := range nodes[0].Chain() {
		if e.M == "" {
			t.Fatalf("empty event in chain: %+v", e)
		}
	}
	for _, nd := range nodes {
		if nd.HarvestGap() {
			t.Fatalf("node %d harvested an unfinished session", nd.ID())
		}
	}
}

func TestEventsAppearInChain(t *testing.T) {
	// A single event submitted in round 3 must appear in every chain,
	// attributed to its witness and session 3.
	witness := func(i int) map[int][]string {
		if i == 0 {
			return map[int][]string{3: {"the-event"}}
		}
		return nil
	}
	nodes, r := buildDynamic(2, 4, 0, witness, nil, 50)
	r.Run(nil)
	for _, nd := range nodes {
		chain := nd.Chain()
		found := false
		for _, e := range chain {
			if e.M == "the-event" {
				// The witness broadcasts in round 3; receivers collect it
				// in round 4 and start session 4 with it.
				if e.Session != 4 || e.Node != nodes[0].ID() {
					t.Fatalf("event metadata wrong: %+v", e)
				}
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d chain misses the event: %v (final=%d, round=%d)",
				nd.ID(), chain, nd.FinalRound(), nd.Round())
		}
	}
}

func TestByzantineEquivocatingEvents(t *testing.T) {
	for seed := uint64(0); seed < 5; seed++ {
		witness := func(i int) map[int][]string {
			m := make(map[int][]string)
			for r := 2; r <= 12; r += 2 {
				m[r] = []string{fmt.Sprintf("good-%d-%d", i, r)}
			}
			return m
		}
		rng := ids.NewRand(seed)
		all := ids.Sparse(rng, 7)
		_ = all
		nodes, r := buildDynamic(seed, 7, 2, witness, adversary.DynEquivEvent{All: all, Every: 2}, 80)
		r.Run(nil)
		for i := range nodes {
			for j := i + 1; j < len(nodes); j++ {
				if !chainPrefix(nodes[i].Chain(), nodes[j].Chain()) {
					t.Fatalf("seed %d: chain-prefix violated:\n%v\n%v",
						seed, nodes[i].Chain(), nodes[j].Chain())
				}
			}
			if nodes[i].HarvestGap() {
				t.Fatalf("seed %d: unfinished session harvested", seed)
			}
		}
		if len(nodes[0].Chain()) == 0 {
			t.Fatalf("seed %d: no progress under attack", seed)
		}
	}
}

func TestJoinerSynchronizesAndExtends(t *testing.T) {
	witness := func(i int) map[int][]string {
		m := make(map[int][]string)
		for r := 1; r <= 30; r++ {
			if i == 0 {
				m[r] = []string{fmt.Sprintf("w%d", r)}
			}
		}
		return m
	}
	nodes, r := buildDynamic(3, 4, 0, witness, nil, 0)
	// a joiner arrives at round 10
	rng := ids.NewRand(77)
	joinID := ids.Sparse(rng, 1)[0]
	joiner := dynamic.New(dynamic.Config{ID: joinID})
	r.ScheduleJoin(10, joiner)
	r.Run(func(round int) bool { return round >= 70 })

	if joiner.Round() != nodes[0].Round() {
		t.Fatalf("joiner round %d != member round %d", joiner.Round(), nodes[0].Round())
	}
	// suffix consistency: both chains restricted to sessions the joiner
	// covers must match exactly
	jc := joiner.Chain()
	if len(jc) == 0 {
		t.Fatal("joiner ordered nothing")
	}
	firstSession := jc[0].Session
	var mc []dynamic.Event
	for _, e := range nodes[0].Chain() {
		if e.Session >= firstSession {
			mc = append(mc, e)
		}
	}
	for i := 0; i < len(jc) && i < len(mc); i++ {
		if jc[i] != mc[i] {
			t.Fatalf("joiner chain diverges at %d: %+v vs %+v", i, jc[i], mc[i])
		}
	}
	if joiner.HarvestGap() {
		t.Fatal("joiner harvested unfinished session")
	}
}

func TestBadAcksCannotDesyncJoiner(t *testing.T) {
	witness := func(i int) map[int][]string { return nil }
	rng := ids.NewRand(5)
	all := ids.Sparse(rng, 7)
	correct := all[:5]
	faulty := all[5:]
	var nodes []*dynamic.Node
	for _, id := range correct {
		nodes = append(nodes, dynamic.New(dynamic.Config{ID: id, Founders: all, Witness: witness(0)}))
	}
	r := sim.NewRunner(sim.Config{MaxRounds: 0}, nodes, faulty, adversary.DynBadAck{Offset: 1000})
	joinID := ids.Sparse(ids.NewRand(88), 1)[0]
	joiner := dynamic.New(dynamic.Config{ID: joinID})
	r.ScheduleJoin(5, joiner)
	r.Run(func(round int) bool { return round >= 20 })
	if joiner.Round() != nodes[0].Round() {
		t.Fatalf("joiner desynchronized: %d vs %d", joiner.Round(), nodes[0].Round())
	}
}

func TestLeaverDepartsCleanly(t *testing.T) {
	witness := func(i int) map[int][]string {
		m := make(map[int][]string)
		for r := 1; r <= 8; r++ {
			m[r] = []string{fmt.Sprintf("n%d-r%d", i, r)}
		}
		return m
	}
	rng := ids.NewRand(9)
	all := ids.Sparse(rng, 4)
	var nodes []*dynamic.Node
	for i, id := range all {
		leaveAt := 0
		if i == 3 {
			leaveAt = 12
		}
		nodes = append(nodes, dynamic.New(dynamic.Config{ID: id, Founders: all, Witness: witness(i), LeaveAt: leaveAt}))
	}
	r := sim.NewRunner(sim.Config{MaxRounds: 80}, nodes, nil, nil)
	r.Run(nil)
	if !nodes[3].Left() {
		t.Fatal("leaver never left")
	}
	// the stayers keep agreeing and keep growing their chains after the departure
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if !chainPrefix(nodes[i].Chain(), nodes[j].Chain()) {
				t.Fatalf("stayers disagree:\n%v\n%v", nodes[i].Chain(), nodes[j].Chain())
			}
		}
		if nodes[i].FinalRound() < 20 {
			t.Fatalf("node %d stalled after departure: final=%d", nodes[i].ID(), nodes[i].FinalRound())
		}
		for _, id := range nodes[i].Members() {
			if id == nodes[3].ID() {
				t.Fatalf("leaver still in member set of %d", nodes[i].ID())
			}
		}
	}
	// events witnessed before leaving must still be ordered
	found := false
	for _, e := range nodes[0].Chain() {
		if e.Node == nodes[3].ID() {
			found = true
		}
	}
	if !found {
		t.Fatal("pre-departure events of the leaver were lost")
	}
}

func TestFinalityLagMatchesBound(t *testing.T) {
	// The finality lag is exactly ⌊5|S|/2⌋ + 3 rounds behind the
	// current round in a static system (first round where the strict
	// inequality holds).
	witness := func(i int) map[int][]string { return nil }
	nodes, r := buildDynamic(11, 4, 0, witness, nil, 40)
	r.Run(nil)
	n0 := nodes[0]
	lag := n0.Round() - n0.FinalRound()
	want := 5*4/2 + 3 // smallest d with 2d > 5*4+4
	if lag != want {
		t.Fatalf("finality lag %d, want %d", lag, want)
	}
}
