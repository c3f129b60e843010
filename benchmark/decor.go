package main

import (
	"fmt"
	"slices"
	"time"

	"idonly/internal/adversary"
	"idonly/internal/core/consensus"
	"idonly/internal/core/parallel"
	"idonly/internal/core/ring"
	"idonly/internal/core/rotor"
	"idonly/internal/engine"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// The step/deliver split, taken from outside the simulator: timing
// decorators around every correct process's Step and the adversary's
// Step. What a run spends outside them is the runner's own work —
// delivery, sort and dedup.

// stepClock accumulates the time and calls of the Steps it wraps. The
// runs it times are sequential (sim.Config.Workers 0), so it needs no
// lock.
type stepClock struct {
	ns    int64
	calls int64
	sends int64
}

// timedProcess decorates a reference-plane process.
type timedProcess struct {
	sim.Process
	c *stepClock
}

func (p timedProcess) Step(round int, inbox []sim.Message) []sim.Send {
	t0 := time.Now()
	out := p.Process.Step(round, inbox)
	p.c.ns += time.Since(t0).Nanoseconds()
	p.c.calls++
	return out
}

// timedLeaver is timedProcess for a process with a leave discipline:
// the runner discovers sim.Leaver by type assertion, so the decorator
// must forward it.
type timedLeaver struct {
	timedProcess
	leaver sim.Leaver
}

func (p timedLeaver) Left() bool { return p.leaver.Left() }

func decorate(p sim.Process, c *stepClock) sim.Process {
	tp := timedProcess{p, c}
	if l, ok := p.(sim.Leaver); ok {
		return timedLeaver{tp, l}
	}
	return tp
}

// timedTyped decorates a typed-plane process.
type timedTyped[M any] struct {
	sim.ProcessT[M]
	c *stepClock
}

func (p *timedTyped[M]) StepTyped(round int, inbox []sim.MsgT[M]) []sim.SendT[M] {
	t0 := time.Now()
	out := p.ProcessT.StepTyped(round, inbox)
	p.c.ns += time.Since(t0).Nanoseconds()
	p.c.calls++
	return out
}

// timedAdversary decorates the adversary driving the faulty nodes.
type timedAdversary struct {
	inner sim.Adversary
	c     *stepClock
}

func (a timedAdversary) Step(node ids.ID, round int, inbox []sim.Message) []sim.Send {
	t0 := time.Now()
	out := a.inner.Step(node, round, inbox)
	a.c.ns += time.Since(t0).Nanoseconds()
	a.c.calls++
	a.c.sends += int64(len(out))
	return out
}

func isDecorated(protocol string) bool { return slices.Contains(decorated, protocol) }

// decoratedRun is one run behind the decorators.
type decoratedRun struct {
	rounds    int
	msgs      int64
	wallNS    int64 // runner construction and Run; building the processes is excluded
	proc, adv stepClock
}

// runDecorated builds a static scenario with the protocols' public
// constructors exactly as engine.Scenario.Run builds it — same id
// draw, same inputs, same adversary, same round limit — wraps every
// Step, and runs it on the plane the engine would choose.
func runDecorated(s engine.Scenario) (decoratedRun, error) {
	var dr decoratedRun
	if s.Churn != nil {
		return dr, fmt.Errorf("decorated run of %s: churned scenarios are not supported", s.Name)
	}
	if s.Adversary == engine.AdvNone {
		s.F = 0
	}
	all := ids.Sparse(ids.NewRand(s.Seed), s.N)
	correct, faulty := all[:s.N-s.F], all[s.N-s.F:]
	cfg := sim.Config{StopWhenAllDecided: true}
	var adv sim.Adversary
	wrapAdv := func(a sim.Adversary) {
		if len(faulty) > 0 {
			adv = timedAdversary{a, &dr.adv}
		}
	}
	var run func() sim.Metrics

	switch s.Protocol {
	case engine.ProtoRing:
		cfg.MaxRounds = ring.Horizon(s.N) + 2
		horizon := ring.Horizon(len(correct))
		procs := make([]*timedTyped[ring.Probe], len(correct))
		for i, id := range correct {
			procs[i] = &timedTyped[ring.Probe]{ring.New(id, ring.Successors(correct, i), horizon), &dr.proc}
		}
		wrapAdv(adversary.Silent{})
		run = func() sim.Metrics { return sim.NewTypedRunner(cfg, procs, faulty, adv, ring.WireCodec()).Run(nil) }

	case engine.ProtoConsensus:
		cfg.MaxRounds = 60 * (s.F + 2)
		procs := make([]*timedTyped[consensus.Wire], len(correct))
		for i, id := range correct {
			procs[i] = &timedTyped[consensus.Wire]{consensus.New(id, float64(i%2)), &dr.proc}
		}
		wrapAdv(adversary.ConsSplit{X1: 0, X2: 1, All: all})
		run = func() sim.Metrics { return sim.NewTypedRunner(cfg, procs, faulty, adv, consensus.WireCodec()).Run(nil) }

	case engine.ProtoRotor:
		cfg.MaxRounds = 10 * s.N
		procs := make([]sim.Process, len(correct))
		for i, id := range correct {
			procs[i] = decorate(rotor.New(id, float64(i)), &dr.proc)
		}
		per := make(map[ids.ID]sim.Adversary)
		for i, id := range faulty {
			per[id] = &adversary.RotorHidden{Subset: correct[:1+i%len(correct)], All: all, X1: -1, X2: -2}
		}
		wrapAdv(adversary.Compose{PerNode: per})
		run = func() sim.Metrics { return sim.NewRunner(cfg, procs, faulty, adv).Run(nil) }

	case engine.ProtoParallel:
		cfg.MaxRounds = 80 * (s.F + 2)
		procs := make([]sim.Process, len(correct))
		for i, id := range correct {
			inputs := make(map[parallel.PairID]parallel.Val, 4)
			for p := 0; p < 4; p++ {
				inputs[parallel.PairID(p+1)] = parallel.V(fmt.Sprintf("v%d", p))
			}
			procs[i] = decorate(parallel.NewNode(id, inputs), &dr.proc)
		}
		wrapAdv(adversary.ParaSplit{Pair: 1, X1: parallel.V("a"), X2: parallel.V("b"), All: all})
		run = func() sim.Metrics { return sim.NewRunner(cfg, procs, faulty, adv).Run(nil) }

	default:
		return dr, fmt.Errorf("decorated run of %s: no decorator for protocol %q", s.Name, s.Protocol)
	}

	t0 := time.Now()
	m := run()
	dr.wallNS = time.Since(t0).Nanoseconds()
	dr.rounds, dr.msgs = m.Rounds, m.MessagesDelivered
	return dr, nil
}
