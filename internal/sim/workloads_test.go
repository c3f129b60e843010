package sim_test

// The schedule tests' workloads: one system per core protocol (and the
// ring overlay at n = 1024), each with the typed play of its wire union
// where it has one. golden_test.go pins the schedule each produces on
// every strategy of simtest.Strategies, the §IV model included.

import (
	"fmt"
	"slices"

	"idonly/internal/adversary"
	"idonly/internal/core/approx"
	"idonly/internal/core/consensus"
	"idonly/internal/core/dynamic"
	"idonly/internal/core/parallel"
	"idonly/internal/core/rbroadcast"
	"idonly/internal/core/ring"
	"idonly/internal/core/rotor"
	"idonly/internal/ids"
	"idonly/internal/sim"
	"idonly/internal/simtest"
)

// sparse draws n sorted ids through g.
func sparse(g simtest.Relabel, rng *ids.Rand, n int) []ids.ID {
	out := ids.Sparse(rng, n)
	for i, id := range out {
		out[i] = g(id)
	}
	return out
}

func split(g simtest.Relabel, rng *ids.Rand, n, f int) (all, correct, faulty []ids.ID) {
	all = sparse(g, rng, n)
	return all, all[:n-f], all[n-f:]
}

// The workloads below are shared with the golden-trace tests
// (golden_test.go), which pin the exact schedule they produce.

func rbroadcastSystem(g simtest.Relabel) simtest.System {
	_, correct, faulty := split(g, ids.NewRand(11), 13, 4)
	var procs []sim.Process
	for i, id := range correct {
		procs = append(procs, rbroadcast.New(id, i == 0, "m"))
	}
	return simtest.System{Procs: procs, Faulty: faulty, Adv: adversary.Replay{}}
}

func consensusSystem(g simtest.Relabel) simtest.System {
	all, correct, faulty := split(g, ids.NewRand(12), 13, 4)
	var procs []sim.Process
	for i, id := range correct {
		procs = append(procs, consensus.New(id, float64(i%2)))
	}
	return simtest.System{Procs: procs, Faulty: faulty, Adv: adversary.ConsSplit{X1: 0, X2: 1, All: all}}
}

func approxSystem(g simtest.Relabel) simtest.System {
	all, correct, faulty := split(g, ids.NewRand(13), 10, 3)
	var procs []sim.Process
	for i, id := range correct {
		procs = append(procs, approx.NewIterated(id, float64(i*10), 8))
	}
	return simtest.System{Procs: procs, Faulty: faulty, Adv: adversary.ApproxOutlier{Low: -1e6, High: 1e6, All: all}}
}

func rotorSystem(g simtest.Relabel) simtest.System {
	all, correct, faulty := split(g, ids.NewRand(14), 13, 4)
	var procs []sim.Process
	for i, id := range correct {
		procs = append(procs, rotor.New(id, float64(i)))
	}
	per := make(map[ids.ID]sim.Adversary)
	for i, id := range faulty {
		per[id] = &adversary.RotorHidden{Subset: correct[:1+i%len(correct)], All: all, X1: -1, X2: -2}
	}
	return simtest.System{Procs: procs, Faulty: faulty, Adv: adversary.Compose{PerNode: per}}
}

func parallelSystem(g simtest.Relabel) simtest.System {
	all, correct, faulty := split(g, ids.NewRand(15), 7, 2)
	var procs []sim.Process
	for _, id := range correct {
		inputs := map[parallel.PairID]parallel.Val{
			1: parallel.V("x"), 2: parallel.V("y"), 3: parallel.V("z"),
		}
		procs = append(procs, parallel.NewNode(id, inputs))
	}
	return simtest.System{Procs: procs, Faulty: faulty, Adv: adversary.ParaSplit{Pair: 1, X1: parallel.V("a"), X2: parallel.V("b"), All: all}}
}

// dynamicSystem covers joins and Leaver removal: a joiner at round 10,
// a leaver at round 12, and an event-equivocating adversary.
func dynamicSystem(g simtest.Relabel) simtest.System {
	all, correct, faulty := split(g, ids.NewRand(16), 7, 2)
	var procs []sim.Process
	for i, id := range correct {
		witness := make(map[int][]string)
		for r := 1; r <= 40; r++ {
			if r%len(correct) == i {
				witness[r] = []string{fmt.Sprintf("ev-%d-%d", i, r)}
			}
		}
		leaveAt := 0
		if i == len(correct)-1 {
			leaveAt = 12
		}
		procs = append(procs, dynamic.New(dynamic.Config{ID: id, Founders: all, Witness: witness, LeaveAt: leaveAt}))
	}
	joiner := dynamic.New(dynamic.Config{ID: sparse(g, ids.NewRand(999), 1)[0]})
	return simtest.System{Procs: procs, Faulty: faulty, Adv: adversary.DynEquivEvent{All: all, Every: 2},
		Joins: []simtest.Join{{Round: 10, Proc: joiner}}}
}

// ringSystem is the scale-frontier overlay at n = 1024: each correct
// node unicasts its running minimum to ⌈log₂ n⌉ successors, so almost
// every delivery is a unicast into a recipient's lane, over far more
// slots than one bitset word. Its faulty nodes sit on the ring and
// bounce what they receive, so the faulty slots keep boxed lanes too.
func ringSystem(g simtest.Relabel) simtest.System {
	all, correct, faulty := split(g, ids.NewRand(17), 1024, 8)
	var procs []sim.Process
	for _, id := range correct {
		i, _ := slices.BinarySearch(all, id)
		procs = append(procs, ring.New(id, ring.Successors(all, i), ring.Horizon(len(all))))
	}
	return simtest.System{Procs: procs, Faulty: faulty, Adv: bounce{}}
}

// bounce is an adversary that reads its inbox: every message a faulty
// node received last round goes back to its sender, a unicast.
type bounce struct{}

func (bounce) Step(_ ids.ID, _ int, inbox []sim.Message) []sim.Send {
	var out []sim.Send
	for _, msg := range inbox {
		out = append(out, sim.Unicast(msg.From, msg.Payload))
	}
	return out
}

var (
	rbroadcastWorkload = simtest.Workload{Name: "rbroadcast", MaxRounds: 12, Sys: rbroadcastSystem, Typed: simtest.Typed[*rbroadcast.Node](rbroadcast.WireCodec())}
	consensusWorkload  = simtest.Workload{Name: "consensus", MaxRounds: 200, StopDecided: true, Sys: consensusSystem, Typed: simtest.Typed[*consensus.Node](consensus.WireCodec())}
	approxWorkload     = simtest.Workload{Name: "approx", MaxRounds: 14, StopDecided: true, Sys: approxSystem}
	rotorWorkload      = simtest.Workload{Name: "rotor", MaxRounds: 130, StopDecided: true, Sys: rotorSystem}
	parallelWorkload   = simtest.Workload{Name: "parallel", MaxRounds: 400, StopDecided: true, Sys: parallelSystem, Typed: simtest.Typed[*parallel.Node](parallel.WireCodec())}
	dynamicWorkload    = simtest.Workload{Name: "dynamic", MaxRounds: 40, Sys: dynamicSystem, Typed: simtest.Typed[*dynamic.Node](dynamic.WireCodec())}
	ring1024Workload   = simtest.Workload{Name: "ring1024", MaxRounds: 13, StopDecided: true, Sys: ringSystem, Typed: simtest.Typed[*ring.Node](ring.WireCodec())}
)
