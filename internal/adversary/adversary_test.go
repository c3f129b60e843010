package adversary_test

import (
	"testing"

	"idonly/internal/adversary"
	"idonly/internal/core/consensus"
	"idonly/internal/core/parallel"
	"idonly/internal/core/rbroadcast"
	"idonly/internal/core/rotor"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

func TestSilentSendsNothing(t *testing.T) {
	if out := (adversary.Silent{}).Step(1, 5, nil); len(out) != 0 {
		t.Fatalf("Silent sent %v", out)
	}
}

func TestComposeRouting(t *testing.T) {
	c := adversary.Compose{
		PerNode: map[ids.ID]sim.Adversary{7: adversary.ConsStubborn{X: 2}},
		Default: adversary.Silent{},
	}
	if out := c.Step(7, 1, nil); len(out) == 0 {
		t.Fatal("per-node strategy not used")
	}
	if out := c.Step(8, 1, nil); len(out) != 0 {
		t.Fatal("default not used")
	}
}

func TestSplitTargets(t *testing.T) {
	lo, hi := adversary.SplitTargets([]ids.ID{1, 2, 3, 4, 5})
	if len(lo) != 2 || len(hi) != 3 {
		t.Fatalf("split %v / %v", lo, hi)
	}
}

func TestReplayEchoesInbox(t *testing.T) {
	out := (adversary.Replay{}).Step(1, 2, []sim.Message{{From: 9, Payload: rotor.Init{}}})
	if len(out) != 1 || out[0].To != sim.Broadcast {
		t.Fatalf("Replay output %v", out)
	}
}

func TestChaosDeterministicPerSeed(t *testing.T) {
	all := []ids.ID{1, 2, 3, 4}
	run := func() []sim.Send {
		c := adversary.NewChaos(5, all)
		var out []sim.Send
		for round := 1; round <= 10; round++ {
			out = append(out, c.Step(2, round, nil)...)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("chaos diverged at %d: %#v vs %#v", i, a[i], b[i])
		}
	}
}

// ---------------------------------------------------------------------
// Chaos robustness: every protocol survives arbitrary garbage.
// ---------------------------------------------------------------------

func TestChaosAgainstConsensus(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		rng := ids.NewRand(seed)
		all := ids.Sparse(rng, 7)
		correct := all[:5]
		faulty := all[5:]
		var nodes []*consensus.Node
		for i, id := range correct {
			nodes = append(nodes, consensus.New(id, float64(i%2)))
		}
		r := sim.NewRunner(sim.Config{MaxRounds: 300, StopWhenAllDecided: true},
			nodes, faulty, adversary.NewChaos(seed, all))
		r.Run(nil)
		for _, nd := range nodes {
			if !nd.Decided() {
				t.Fatalf("seed %d: consensus stalled under chaos", seed)
			}
			if nd.Value() != nodes[0].Value() {
				t.Fatalf("seed %d: chaos broke agreement: %v vs %v", seed, nodes[0].Value(), nd.Value())
			}
		}
		// validity: output must be some correct node's input (0 or 1)
		if v := nodes[0].Value(); v != 0 && v != 1 {
			t.Fatalf("seed %d: chaos injected value %v decided", seed, v)
		}
	}
}

func TestChaosAgainstReliableBroadcast(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		rng := ids.NewRand(seed)
		all := ids.Sparse(rng, 7)
		correct := all[:5]
		faulty := all[5:]
		var nodes []*rbroadcast.Node
		for i, id := range correct {
			nodes = append(nodes, rbroadcast.New(id, i == 0, "real"))
		}
		r := sim.NewRunner(sim.Config{MaxRounds: 30}, nodes, faulty, adversary.NewChaos(seed, all))
		r.Run(nil)
		// correctness: the real broadcast is accepted by everyone
		for _, nd := range nodes {
			if _, ok := nd.Accepted("real", correct[0]); !ok {
				t.Fatalf("seed %d: chaos suppressed a correct broadcast", seed)
			}
		}
		// unforgeability: no accepted key may claim a correct source
		// that is not the real broadcaster
		correctSet := make(map[ids.ID]bool)
		for _, id := range correct {
			correctSet[id] = true
		}
		for _, nd := range nodes {
			for k := range nd.AcceptedKeys() {
				if correctSet[k.S] && !(k.S == correct[0] && k.M == "real") {
					t.Fatalf("seed %d: forged key %v accepted", seed, k)
				}
			}
		}
	}
}

func TestChaosAgainstRotor(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		rng := ids.NewRand(seed)
		all := ids.Sparse(rng, 7)
		correct := all[:5]
		faulty := all[5:]
		var nodes []*rotor.Node
		for i, id := range correct {
			nodes = append(nodes, rotor.New(id, float64(i)))
		}
		r := sim.NewRunner(sim.Config{MaxRounds: 100, StopWhenAllDecided: true},
			nodes, faulty, adversary.NewChaos(seed, all))
		r.Run(nil)
		for _, nd := range nodes {
			if !nd.Decided() {
				t.Fatalf("seed %d: rotor stalled under chaos", seed)
			}
		}
	}
}

func TestChaosAgainstParallel(t *testing.T) {
	for seed := uint64(0); seed < 15; seed++ {
		rng := ids.NewRand(seed)
		all := ids.Sparse(rng, 7)
		correct := all[:5]
		faulty := all[5:]
		var nodes []*parallel.Node
		for _, id := range correct {
			nodes = append(nodes, parallel.NewNode(id, map[parallel.PairID]parallel.Val{100: parallel.V("real")}))
		}
		r := sim.NewRunner(sim.Config{MaxRounds: 400, StopWhenAllDecided: true},
			nodes, faulty, adversary.NewChaos(seed, all))
		r.Run(nil)
		base := nodes[0].Outputs()
		for _, nd := range nodes {
			if !nd.Decided() {
				t.Fatalf("seed %d: parallel consensus stalled under chaos", seed)
			}
			out := nd.Outputs()
			if len(out) != len(base) {
				t.Fatalf("seed %d: outputs differ in size: %v vs %v", seed, base, out)
			}
			for k, v := range base {
				if out[k] != v {
					t.Fatalf("seed %d: outputs differ at %v: %v vs %v", seed, k, v, out[k])
				}
			}
		}
		// the shared real pair must survive
		if base[100] != parallel.V("real") {
			t.Fatalf("seed %d: real pair lost or corrupted: %v", seed, base)
		}
	}
}
