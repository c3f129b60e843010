package sim_test

// The schedule tests' workloads: one system per core protocol (and the
// ring overlay at n = 1024), the runners they play on — the boxed
// instantiation always, the protocol's wire union where it has one —
// and the plumbing that puts a system on a runner. golden_test.go pins
// the schedule each produces, naive_test.go replays them on a
// map-based model of the paper's §IV, and readonly_test.go runs them
// with every inbox guarded.

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
)

// runner is what the schedule tests need of either instantiation of the
// core: *sim.Runner and every *sim.TypedRunner[P, M] satisfy it.
type runner interface {
	Run(stop func(round int) bool) sim.Metrics
	ScheduleFaultyJoin(round int, id ids.ID)
	RemoveFaulty(id ids.ID)
}

// system is one workload before it is put on a runner: the founding
// processes (freshly constructed — a system runs once), the faulty ids
// and their adversary, and the membership changes of the run. The
// golden tests put it on the core's instantiations; naive_test.go
// interprets it directly.
type system struct {
	procs    []sim.Process
	faulty   []ids.ID // present from round 1
	adv      sim.Adversary
	joins    []join         // correct joiners, in construction order
	fjoins   map[int]ids.ID // faulty joiners by round
	removals map[int]ids.ID // faulty node removed after the given round
}

type join struct {
	round int
	proc  sim.Process
}

// all lists every correct process of the run in construction order:
// founders, then joiners.
func (s system) all() []sim.Process {
	out := append([]sim.Process(nil), s.procs...)
	for _, j := range s.joins {
		out = append(out, j.proc)
	}
	return out
}

// playFn runs a system to completion under a config and returns the
// run's metrics: the core's instantiations (on) and the naive model
// (naive_test.go) are each one.
type playFn func(cfg sim.Config, s system) sim.Metrics

// on plays a system on the runner mk builds for it: faulty joins are
// scheduled up front, removals fire through Run's stop callback
// (membership must not change mid-round).
func on(mk func(sim.Config, system) runner) playFn {
	return func(cfg sim.Config, s system) sim.Metrics {
		run := mk(cfg, s)
		for round, id := range s.fjoins {
			run.ScheduleFaultyJoin(round, id)
		}
		return run.Run(func(round int) bool {
			if id, ok := s.removals[round]; ok {
				run.RemoveFaulty(id)
			}
			return false
		})
	}
}

// boxed plays a system on the boxed instantiation.
var boxed = on(func(cfg sim.Config, s system) runner {
	run := sim.NewRunner(cfg, s.procs, s.faulty, s.adv)
	for _, j := range s.joins {
		run.ScheduleJoin(j.round, j.proc)
	}
	return run
})

// typedOver plays a system whose processes, joiners included, are all
// P on the core instantiated over P's wire union.
func typedOver[P sim.ProcessT[M], M sim.WireMsg[M]](codec sim.Codec[M]) playFn {
	return on(func(cfg sim.Config, s system) runner {
		procs := make([]P, len(s.procs))
		for i, p := range s.procs {
			procs[i] = p.(P)
		}
		run := sim.NewTypedRunner(cfg, procs, s.faulty, s.adv, codec)
		for _, j := range s.joins {
			run.ScheduleJoin(j.round, j.proc.(P))
		}
		return run
	})
}

// workload is a named system with its run limits and, where the
// protocol has a wire union, the typed instantiation to put it on. sys
// builds the system with every id it draws passed through g.
type workload struct {
	name        string
	maxRounds   int
	stopDecided bool
	sys         func(g relabel) system
	typed       playFn // nil: no wire union
	gauges      bool   // digests cover the churn gauges instead of the decided rounds
}

// instantiations lists the runners a workload plays on: boxed always,
// typed where it has one.
func (w workload) instantiations() map[string]playFn {
	m := map[string]playFn{"boxed": boxed}
	if w.typed != nil {
		m["typed"] = w.typed
	}
	return m
}

func (w workload) config(obs sim.Observer) sim.Config {
	return sim.Config{MaxRounds: w.maxRounds, StopWhenAllDecided: w.stopDecided, Observer: obs}
}

// relabel maps the ids a system draws; same keeps them as drawn.
type relabel func(ids.ID) ids.ID

func same(id ids.ID) ids.ID { return id }

// sparse draws n sorted ids through g.
func sparse(g relabel, rng *ids.Rand, n int) []ids.ID {
	out := ids.Sparse(rng, n)
	for i, id := range out {
		out[i] = g(id)
	}
	return out
}

func split(g relabel, rng *ids.Rand, n, f int) (all, correct, faulty []ids.ID) {
	all = sparse(g, rng, n)
	return all, all[:n-f], all[n-f:]
}

// The workloads below are shared with the golden-trace tests
// (golden_test.go), which pin the exact schedule they produce.

func rbroadcastSystem(g relabel) system {
	_, correct, faulty := split(g, ids.NewRand(11), 13, 4)
	var procs []sim.Process
	for i, id := range correct {
		procs = append(procs, rbroadcast.New(id, i == 0, "m"))
	}
	return system{procs: procs, faulty: faulty, adv: adversary.Replay{}}
}

func consensusSystem(g relabel) system {
	all, correct, faulty := split(g, ids.NewRand(12), 13, 4)
	var procs []sim.Process
	for i, id := range correct {
		procs = append(procs, consensus.New(id, float64(i%2)))
	}
	return system{procs: procs, faulty: faulty, adv: adversary.ConsSplit{X1: 0, X2: 1, All: all}}
}

func approxSystem(g relabel) system {
	all, correct, faulty := split(g, ids.NewRand(13), 10, 3)
	var procs []sim.Process
	for i, id := range correct {
		procs = append(procs, approx.NewIterated(id, float64(i*10), 8))
	}
	return system{procs: procs, faulty: faulty, adv: adversary.ApproxOutlier{Low: -1e6, High: 1e6, All: all}}
}

func rotorSystem(g relabel) system {
	all, correct, faulty := split(g, ids.NewRand(14), 13, 4)
	var procs []sim.Process
	for i, id := range correct {
		procs = append(procs, rotor.New(id, float64(i)))
	}
	per := make(map[ids.ID]sim.Adversary)
	for i, id := range faulty {
		per[id] = &adversary.RotorHidden{Subset: correct[:1+i%len(correct)], All: all, X1: -1, X2: -2}
	}
	return system{procs: procs, faulty: faulty, adv: adversary.Compose{PerNode: per}}
}

func parallelSystem(g relabel) system {
	all, correct, faulty := split(g, ids.NewRand(15), 7, 2)
	var procs []sim.Process
	for _, id := range correct {
		inputs := map[parallel.PairID]parallel.Val{
			1: parallel.V("x"), 2: parallel.V("y"), 3: parallel.V("z"),
		}
		procs = append(procs, parallel.NewNode(id, inputs))
	}
	return system{procs: procs, faulty: faulty, adv: adversary.ParaSplit{Pair: 1, X1: parallel.V("a"), X2: parallel.V("b"), All: all}}
}

// dynamicSystem covers joins and Leaver removal: a joiner at round 10,
// a leaver at round 12, and an event-equivocating adversary.
func dynamicSystem(g relabel) system {
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
	return system{procs: procs, faulty: faulty, adv: adversary.DynEquivEvent{All: all, Every: 2},
		joins: []join{{10, joiner}}}
}

// ringSystem is the scale-frontier overlay at n = 1024: each correct
// node unicasts its running minimum to ⌈log₂ n⌉ successors, so almost
// every delivery is a unicast into a recipient's lane, over far more
// slots than one bitset word. Its faulty nodes sit on the ring and
// bounce what they receive, so the faulty slots keep boxed lanes too.
func ringSystem(g relabel) system {
	all, correct, faulty := split(g, ids.NewRand(17), 1024, 8)
	var procs []sim.Process
	for _, id := range correct {
		i, _ := slices.BinarySearch(all, id)
		procs = append(procs, ring.New(id, ring.Successors(all, i), ring.Horizon(len(all))))
	}
	return system{procs: procs, faulty: faulty, adv: bounce{}}
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
	rbroadcastWorkload = workload{"rbroadcast", 12, false, rbroadcastSystem, typedOver[*rbroadcast.Node](rbroadcast.WireCodec()), false}
	consensusWorkload  = workload{"consensus", 200, true, consensusSystem, typedOver[*consensus.Node](consensus.WireCodec()), false}
	approxWorkload     = workload{"approx", 14, true, approxSystem, nil, false}
	rotorWorkload      = workload{"rotor", 130, true, rotorSystem, nil, false}
	parallelWorkload   = workload{"parallel", 400, true, parallelSystem, typedOver[*parallel.Node](parallel.WireCodec()), false}
	dynamicWorkload    = workload{"dynamic", 40, false, dynamicSystem, typedOver[*dynamic.Node](dynamic.WireCodec()), false}
	ring1024Workload   = workload{"ring1024", 13, true, ringSystem, typedOver[*ring.Node](ring.WireCodec()), false}
)
