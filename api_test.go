package idonly_test

import (
	"testing"

	"idonly"
)

// The API test exercises the public facade exactly as an external user
// would: build a system, run it, inspect outcomes.

func TestPublicAPIConsensus(t *testing.T) {
	rng := idonly.NewRand(1)
	all := idonly.SparseIDs(rng, 7)
	correct, faulty := all[:5], all[5:]

	var nodes []*idonly.ConsensusNode
	for i, id := range correct {
		nodes = append(nodes, idonly.NewConsensus(id, float64(i%2)))
	}
	r := idonly.NewRunner(idonly.Config{StopWhenAllDecided: true}, nodes, faulty,
		idonly.SplitBrainAdversary(0, 1, all))
	m := r.Run(nil)

	if m.Rounds == 0 || m.MessagesDelivered == 0 {
		t.Fatal("metrics empty")
	}
	for _, nd := range nodes {
		if !nd.Decided() || nd.Value() != nodes[0].Value() {
			t.Fatalf("public API consensus failed: %v", nd)
		}
	}
}

func TestPublicAPIReliableBroadcast(t *testing.T) {
	rng := idonly.NewRand(2)
	all := idonly.SparseIDs(rng, 4)
	var nodes []*idonly.ReliableBroadcastNode
	for i, id := range all {
		nodes = append(nodes, idonly.NewReliableBroadcast(id, i == 0, "hello"))
	}
	r := idonly.NewRunner(idonly.Config{MaxRounds: 5}, nodes, nil, nil)
	r.Run(nil)
	for _, nd := range nodes {
		if _, ok := nd.Accepted("hello", all[0]); !ok {
			t.Fatal("broadcast not accepted via public API")
		}
	}
}

func TestPublicAPIParallel(t *testing.T) {
	rng := idonly.NewRand(3)
	all := idonly.SparseIDs(rng, 4)
	var pnodes []*idonly.ParallelNode
	for _, id := range all {
		pnodes = append(pnodes, idonly.NewParallelConsensus(id, map[idonly.PairID]idonly.Val{1: idonly.V("x")}))
	}
	r := idonly.NewRunner(idonly.Config{StopWhenAllDecided: true}, pnodes, nil, nil)
	r.Run(nil)
	for _, nd := range pnodes {
		out := nd.Outputs()
		if out[1] != idonly.V("x") {
			t.Fatalf("parallel output %v", out)
		}
	}
}

func TestPublicAPIEngine(t *testing.T) {
	grid := idonly.Grid{
		Name:        "api-test",
		Protocols:   []string{"consensus", "rbroadcast"},
		Adversaries: []string{"silent", "split"},
		Sizes:       []int{7},
		Seeds:       []uint64{1, 2},
	}
	specs := grid.Scenarios()
	if len(specs) != 8 {
		t.Fatalf("grid expanded to %d scenarios, want 8", len(specs))
	}
	seq := idonly.RunAll(specs, idonly.EngineOptions{Workers: 1})
	par := idonly.RunAll(specs, idonly.EngineOptions{Workers: 4})
	seqC, err := seq.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	parC, err := par.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if string(seqC) != string(parC) {
		t.Fatal("canonical reports differ across worker counts via public API")
	}
	if len(seq.Errors()) != 0 {
		t.Fatalf("errors: %v", seq.Errors())
	}

	doubled := idonly.ParallelMap(3, 5, func(i int) int { return 2 * i })
	for i, v := range doubled {
		if v != 2*i {
			t.Fatalf("ParallelMap[%d] = %d", i, v)
		}
	}

	if _, err := idonly.PresetGrid("small"); err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPIResultStore drives the caching plane exactly as an
// external user would: open a store, sweep cold, sweep warm, address a
// single result by its scenario digest.
func TestPublicAPIResultStore(t *testing.T) {
	st, err := idonly.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	grid := idonly.Grid{
		Name:        "api-store-test",
		Protocols:   []string{idonly.ProtoConsensus, idonly.ProtoDynamic},
		Adversaries: []string{idonly.AdvSilent},
		Sizes:       []int{7},
		Seeds:       []uint64{1, 2},
	}
	specs := grid.Scenarios()
	cold, coldStats, err := idonly.CachedRunAll(st, specs, idonly.EngineOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	warm, warmStats, err := idonly.CachedRunAll(st, specs, idonly.EngineOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.Misses != len(specs) || warmStats.Hits != len(specs) {
		t.Fatalf("cold %+v warm %+v, want all misses then all hits", coldStats, warmStats)
	}
	coldC, err := cold.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	warmC, err := warm.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if string(coldC) != string(warmC) {
		t.Fatal("warm canonical report differs from cold via public API")
	}

	d := idonly.ScenarioDigest(specs[0])
	if len(d) != 64 {
		t.Fatalf("ScenarioDigest returned %q", d)
	}
	if !st.Has(d) {
		t.Fatal("store missing the first scenario after the sweep")
	}
	res, ok, err := st.Get(d)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if res.Scenario.Protocol != specs[0].Protocol {
		t.Fatalf("stored result protocol %q", res.Scenario.Protocol)
	}
}

func TestPublicAPIDynamicAndAsync(t *testing.T) {
	// dynamic
	rng := idonly.NewRand(4)
	all := idonly.SparseIDs(rng, 4)
	var dnodes []*idonly.DynamicNode
	for _, id := range all {
		dnodes = append(dnodes, idonly.NewDynamicOrder(idonly.DynamicConfig{
			ID: id, Founders: all, Witness: map[int][]string{2: {"e"}},
		}))
	}
	r := idonly.NewRunner(idonly.Config{MaxRounds: 30}, dnodes, nil, nil)
	r.Run(nil)
	if len(dnodes[0].Chain()) == 0 {
		t.Fatal("dynamic chain empty via public API")
	}

	// async partition
	groupA := map[idonly.NodeID]bool{all[0]: true, all[1]: true}
	_ = idonly.NewAsyncScheduler(nil, idonly.PartitionDelay(groupA, 1, -1))
}
