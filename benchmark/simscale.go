package main

import (
	"fmt"
	"time"

	"idonly/internal/async"
	"idonly/internal/engine"
	"idonly/internal/ids"
)

// simSpecs are sim-scale's seven runs, in simItems order: three on the
// typed runner (ring, consensus, rbroadcast — static, wire-union
// adversaries) and four the engine sends to the reference runner.
// Scenario i runs under seed seed*1000+i+1.
func simSpecs(c *runCtx) []engine.Scenario {
	specs := []engine.Scenario{
		{Protocol: engine.ProtoRing, Adversary: engine.AdvNone, N: 10000},
		{Protocol: engine.ProtoConsensus, Adversary: engine.AdvSplit, N: 100, F: 33},
		{Protocol: engine.ProtoRBroadcast, Adversary: engine.AdvSplit, N: 128, F: 42},
		{Protocol: engine.ProtoRotor, Adversary: engine.AdvSplit, N: 62, F: 20},
		{Protocol: engine.ProtoParallel, Adversary: engine.AdvSplit, N: 62, F: 20},
		{Protocol: engine.ProtoApprox, Adversary: engine.AdvSplit, N: 62, F: 20},
		{Protocol: engine.ProtoDynamic, Adversary: engine.AdvSplit, N: 20, F: 6, Churn: &fullChurn},
	}
	if c.quick {
		specs[0].N = 200
		specs[1].N, specs[1].F = 10, 3
		specs[2].N, specs[2].F = 13, 4
		for i := 3; i < 6; i++ {
			specs[i].N, specs[i].F = 7, 2
		}
		specs[6].N, specs[6].F = 8, 2
	}
	seeds := gridSeeds(c.seed, len(specs))
	for i := range specs {
		specs[i].Name, specs[i].Seed = simItems[i], seeds[i]
	}
	return specs
}

// typedItems is how many leading simSpecs run on the typed plane.
const typedItems = 3

// outcome is what must repeat exactly between two runs of a scenario.
type outcome struct {
	rounds        int
	msgs, dropped int64
	output, err   string
}

func outcomeOf(r engine.Result) outcome {
	return outcome{r.Rounds, r.MessagesDelivered, r.MessagesDropped, r.Output, r.Err}
}

type simWorkload struct {
	c       *runCtx
	specs   []engine.Scenario
	want    []outcome // op 0's per-scenario outcomes
	grows   int64     // op 0's inbox growths, summed
	oracleS float64
	ops     int
}

// prepare runs the three typed items once on the reference runner
// (NoFastPath): the typed plane must reproduce them.
func (w *simWorkload) prepare() error {
	w.specs = simSpecs(w.c)
	w.want = make([]outcome, len(w.specs))
	t0 := time.Now()
	for i := 0; i < typedItems; i++ {
		ref := w.specs[i]
		ref.NoFastPath = true
		res := ref.Run()
		if res.Err != "" {
			return fmt.Errorf("reference run of %s: %s", ref.Name, res.Err)
		}
		w.want[i] = outcomeOf(res)
	}
	w.oracleS = time.Since(t0).Seconds()
	return nil
}

// setup is one untimed op: there is no store or service to build, but
// the heap has to grow to its working size before timing starts.
func (w *simWorkload) setup() error {
	results := engine.RunAll(w.specs, engine.Options{Workers: 1}).Results
	for i, r := range results {
		if r.Err != "" {
			return fmt.Errorf("warm-up run of %s: %s", w.specs[i].Name, r.Err)
		}
	}
	return nil
}

func (w *simWorkload) teardown() error { return nil }

// check compares one op's results with op 0's (and, for the typed
// items, with the reference runner's from setup).
func (w *simWorkload) check(op int, results []engine.Result) error {
	for i, r := range results {
		got := outcomeOf(r)
		if op == 0 {
			w.grows += r.InboxGrows
			if i >= typedItems {
				w.want[i] = got // op 0 defines the reference-plane items
			}
		}
		if got.err != "" {
			return fmt.Errorf("op %d: %s failed: %s", op, w.specs[i].Name, got.err)
		}
		if got != w.want[i] {
			return fmt.Errorf("op %d: %s gave %+v, want %+v", op, w.specs[i].Name, got, w.want[i])
		}
	}
	return nil
}

func (w *simWorkload) run(d time.Duration, tr *tracer) (opStats, error) {
	var st opStats
	clock, err := newPeriodClock(0) // an op takes a second: each is its own period
	if err != nil {
		return st, err
	}
	err = untilDeadline(d, func(int) error {
		op := w.ops
		w.ops++
		st.attempted++
		t0 := time.Now()
		var results []engine.Result
		if tr == nil {
			results = engine.RunAll(w.specs, engine.Options{Workers: 1}).Results
		} else {
			// The traced op makes the same seven runs one by one, each
			// inside its own span.
			root := tr.begin("op", -1, op)
			for i, s := range w.specs {
				sp := tr.begin("sim.run."+simItems[i], root, op)
				results = append(results, s.Run())
				tr.end(sp, 1)
			}
			tr.end(root, 1)
		}
		took := time.Since(t0)
		if err := w.check(op, results); err != nil {
			st.failed++
			logf("%v", err)
			return clock.opDone(0)
		}
		st.ms = append(st.ms, float64(took.Nanoseconds())/1e6)
		for _, r := range results {
			st.messages += r.MessagesDelivered
		}
		return clock.opDone(int64(len(results)))
	})
	if err != nil {
		return st, err
	}
	st.periods, err = clock.periods()
	return st, err
}

func (w *simWorkload) verify() (int, error) { return 0, nil }

func (w *simWorkload) layers(d time.Duration, tr *tracer, m metrics) error {
	m.set("bench.oracle_s", w.oracleS)
	var rounds, msgs, dropped int64
	planeMsgs, planeNS := [2]float64{}, [2]float64{} // typed, reference
	for i, o := range w.want {
		rounds += int64(o.rounds)
		msgs += o.msgs
		dropped += o.dropped
		ns := median(byName(tr.spans, "sim.run."+simItems[i]))
		m.set("sim.run_ns."+simItems[i], ns)
		plane := 1
		if i < typedItems {
			plane = 0
		}
		planeMsgs[plane] += float64(o.msgs)
		planeNS[plane] += ns
	}
	m.set("engine.rounds", float64(rounds))
	m.set("engine.msgs", float64(msgs))
	m.set("sim.msgs_dropped", float64(dropped))
	m.set("sim.msgs_per_s.typed", planeMsgs[0]/planeNS[0]*1e9)
	m.set("sim.msgs_per_s.reference", planeMsgs[1]/planeNS[1]*1e9)
	m.set("sim.inbox_grows", float64(w.grows))

	// Step/deliver split: re-run four items behind timing decorators.
	// A decorated run that does not reproduce the engine's own run of
	// the same spec measured something else and is discarded.
	type split struct{ step, adv, deliver []float64 }
	splits := make(map[string]*split)
	var calls, sends, discarded float64
	err := untilDeadline(d*3/4, func(i int) error {
		calls, sends = 0, 0
		for idx, s := range w.specs {
			if !isDecorated(s.Protocol) {
				continue
			}
			sp := tr.begin("sim.decorated."+simItems[idx], -1, i)
			dr, err := runDecorated(s)
			tr.end(sp, 1)
			if err != nil {
				return err
			}
			if dr.rounds != w.want[idx].rounds || dr.msgs != w.want[idx].msgs {
				discarded++
				logf("decorated %s gave (%d rounds, %d msgs), the engine (%d, %d): discarded",
					s.Name, dr.rounds, dr.msgs, w.want[idx].rounds, w.want[idx].msgs)
				continue
			}
			tr.record("core.step."+s.Protocol, sp, i, time.Now().Add(-time.Duration(dr.proc.ns)), dr.proc.ns)
			sl := splits[s.Protocol]
			if sl == nil {
				sl = &split{}
				splits[s.Protocol] = sl
			}
			sl.step = append(sl.step, float64(dr.proc.ns))
			sl.adv = append(sl.adv, float64(dr.adv.ns))
			sl.deliver = append(sl.deliver, float64(dr.wallNS-dr.proc.ns-dr.adv.ns))
			calls += float64(dr.proc.calls)
			sends += float64(dr.adv.sends)
		}
		return nil
	})
	if err != nil {
		return err
	}
	var advNS float64
	deliver := map[string]float64{}
	for p, sl := range splits {
		m.set("core.step_ns."+p, median(sl.step))
		advNS += median(sl.adv)
		deliver[p] = median(sl.deliver)
	}
	m.set("sim.deliver_ns.typed", deliver[engine.ProtoRing]+deliver[engine.ProtoConsensus])
	m.set("sim.deliver_ns.reference", deliver[engine.ProtoRotor]+deliver[engine.ProtoParallel])
	m.set("adversary.step_ns", advNS)
	m.set("core.step_calls", calls)
	m.set("adversary.sends", sends)
	m.set("sim.decorated_discarded", discarded)

	// The asynchronous simulator, unreachable from the service today:
	// a 64-node timeout-quorum run across a partition.
	var eps []float64
	err = untilDeadline(d/4, func(i int) error {
		t0 := time.Now()
		events := asyncPartition(w.c.seed)
		ns := time.Since(t0).Nanoseconds()
		tr.record("async.run", -1, i, t0, ns)
		eps = append(eps, float64(events)/float64(ns)*1e9)
		return nil
	})
	m.set("async.events_per_s", median(eps))
	return err
}

// asyncPartition runs TimeoutQuorum on 64 nodes split into two halves
// whose cross traffic is slow, and returns the events processed.
func asyncPartition(seed uint64) int {
	all := ids.Sparse(ids.NewRand(seed), 64)
	groupA := make(map[ids.ID]bool)
	procs := make([]async.Process, len(all))
	for i, id := range all {
		v := 0
		if i < len(all)/2 {
			groupA[id] = true
			v = 1
		}
		procs[i] = async.NewTimeoutQuorum(id, v, 2.0)
	}
	return async.NewScheduler(procs, async.PartitionDelay(groupA, 0.25, 100)).Run(1e6)
}
