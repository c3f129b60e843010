package sim_test

// The inbox is read-only. The round's sorted broadcast log is the very
// slice every recipient with no unicasts is handed, so one process
// writing to its inbox would rewrite its peers'. inboxGuard checks the
// contract from outside the core: it decorates every Step, StepTyped
// and Adversary.Step with a hash of the inbox taken before and after
// the call.

import (
	"fmt"
	"hash/fnv"
	"testing"

	"idonly/internal/core/consensus"
	"idonly/internal/core/dynamic"
	"idonly/internal/core/parallel"
	"idonly/internal/core/rbroadcast"
	"idonly/internal/core/ring"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// inboxGuard collects the calls that changed the inbox they were
// handed.
type inboxGuard struct {
	calls      int
	violations []string
}

func hashInbox[M any](inbox []sim.MsgT[M]) uint64 {
	h := fnv.New64a()
	for _, m := range inbox {
		fmt.Fprintf(h, "%d %v;", m.From, m.Payload)
	}
	return h.Sum64()
}

// check runs step and records it as a violation if the inbox's hash
// moved across the call.
func check[M, R any](g *inboxGuard, what string, id ids.ID, round int, inbox []sim.MsgT[M], step func() R) R {
	before := hashInbox(inbox)
	out := step()
	g.calls++
	if hashInbox(inbox) != before {
		g.violations = append(g.violations, fmt.Sprintf("%s of node %d modified its round-%d inbox", what, id, round))
	}
	return out
}

// guardedProc decorates a boxed process; Left forwards an optional
// Leaver.
type guardedProc struct {
	sim.Process
	g *inboxGuard
}

func (p guardedProc) Step(round int, inbox []sim.Message) []sim.Send {
	return check(p.g, "Step", p.ID(), round, inbox, func() []sim.Send { return p.Process.Step(round, inbox) })
}

func (p guardedProc) Left() bool {
	l, ok := p.Process.(sim.Leaver)
	return ok && l.Left()
}

// guardedT decorates a process on a typed instantiation.
type guardedT[M any] struct {
	sim.ProcessT[M]
	g *inboxGuard
}

func (p guardedT[M]) StepTyped(round int, inbox []sim.MsgT[M]) []sim.SendT[M] {
	return check(p.g, "StepTyped", p.ID(), round, inbox, func() []sim.SendT[M] { return p.ProcessT.StepTyped(round, inbox) })
}

func (p guardedT[M]) Left() bool {
	l, ok := p.ProcessT.(sim.Leaver)
	return ok && l.Left()
}

type guardedAdv struct {
	sim.Adversary
	g *inboxGuard
}

func (a guardedAdv) Step(node ids.ID, round int, inbox []sim.Message) []sim.Send {
	return check(a.g, "Adversary.Step", node, round, inbox, func() []sim.Send { return a.Adversary.Step(node, round, inbox) })
}

func (g *inboxGuard) adversary(adv sim.Adversary) sim.Adversary {
	if adv == nil {
		return nil
	}
	return guardedAdv{adv, g}
}

// boxedPlay plays a system on the boxed instantiation with every
// process and the adversary decorated.
func (g *inboxGuard) boxedPlay() playFn {
	return func(cfg sim.Config, s system) sim.Metrics {
		procs := make([]sim.Process, len(s.procs))
		for i, p := range s.procs {
			procs[i] = guardedProc{p, g}
		}
		joins := make([]join, len(s.joins))
		for i, j := range s.joins {
			joins[i] = join{j.round, guardedProc{j.proc, g}}
		}
		s.procs, s.joins, s.adv = procs, joins, g.adversary(s.adv)
		return boxed(cfg, s)
	}
}

// guardedOver is typedOver with every process and the adversary
// decorated.
func guardedOver[P sim.ProcessT[M], M sim.WireMsg[M]](codec sim.Codec[M]) func(*inboxGuard) playFn {
	return func(g *inboxGuard) playFn {
		return func(cfg sim.Config, s system) sim.Metrics {
			procs := make([]guardedT[M], len(s.procs))
			for i, p := range s.procs {
				procs[i] = guardedT[M]{p.(P), g}
			}
			run := sim.NewTypedRunner(cfg, procs, s.faulty, g.adversary(s.adv), codec)
			for _, j := range s.joins {
				run.ScheduleJoin(j.round, guardedT[M]{j.proc.(P), g})
			}
			return s.play(run)
		}
	}
}

// guardedTyped names the decorated typed play of every golden workload
// that has a typed instantiation.
var guardedTyped = map[string]func(*inboxGuard) playFn{
	"rbroadcast":      guardedOver[*rbroadcast.Node](rbroadcast.WireCodec()),
	"consensus":       guardedOver[*consensus.Node](consensus.WireCodec()),
	"churn-consensus": guardedOver[*consensus.Node](consensus.WireCodec()),
	"parallel":        guardedOver[*parallel.Node](parallel.WireCodec()),
	"dynamic":         guardedOver[*dynamic.Node](dynamic.WireCodec()),
	"churn-dynamic":   guardedOver[*dynamic.Node](dynamic.WireCodec()),
	"ring1024":        guardedOver[*ring.Node](ring.WireCodec()),
}

// TestInboxIsReadOnly replays every golden system, on both
// instantiations, alone and beside copies of itself, with every inbox
// guarded (one guard per copy): no protocol or adversary may write to
// what it was handed, and the decorated runs must still reproduce the
// pinned digests.
func TestInboxIsReadOnly(t *testing.T) {
	for _, tc := range append(goldenTraces, goldenChurn...) {
		plays := map[string]func(*inboxGuard) playFn{"boxed": (*inboxGuard).boxedPlay}
		if tc.typed != nil {
			mk, ok := guardedTyped[tc.name]
			if !ok {
				t.Fatalf("%s has a typed instantiation but no guarded one", tc.name)
			}
			plays["typed"] = mk
		}
		for name, mk := range plays {
			for _, workers := range workerCounts {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", tc.name, name, workers), func(t *testing.T) {
					guards := make([]inboxGuard, workers)
					digests := make([]string, workers)
					concurrently(workers, func(i int) { digests[i] = digestRun(tc.workload, mk(&guards[i])) })
					for i, g := range guards {
						if digests[i] != tc.want {
							t.Fatalf("schedule changed under the guard in copy %d: digest %s, golden %s", i, digests[i], tc.want)
						}
						if g.calls == 0 {
							t.Fatalf("the guard of copy %d saw no Step", i)
						}
						if len(g.violations) > 0 {
							t.Fatalf("copy %d: %d inbox writes, first: %s", i, len(g.violations), g.violations[0])
						}
					}
				})
			}
		}
	}
}

// vandalProc broadcasts a probe every round and, if it is a vandal,
// scribbles over the first entry of its inbox; vandalAdv does the same
// to the inbox of the faulty node it drives.
type vandalProc struct {
	id     ids.ID
	vandal bool
}

func (p *vandalProc) ID() ids.ID    { return p.id }
func (p *vandalProc) Decided() bool { return false }
func (p *vandalProc) Output() any   { return nil }
func (p *vandalProc) StepTyped(round int, inbox []sim.MsgT[ring.Probe]) []sim.SendT[ring.Probe] {
	if p.vandal && len(inbox) > 0 {
		inbox[0].Payload.Min++
	}
	return []sim.SendT[ring.Probe]{sim.BroadcastT(ring.Probe{Min: p.id})}
}
func (p *vandalProc) Step(round int, inbox []sim.Message) []sim.Send {
	if p.vandal && len(inbox) > 0 {
		inbox[0].From++
	}
	return []sim.Send{sim.BroadcastPayload(ring.Probe{Min: p.id})}
}

type vandalAdv struct{}

func (vandalAdv) Step(_ ids.ID, _ int, inbox []sim.Message) []sim.Send {
	if len(inbox) > 0 {
		inbox[0].From++
	}
	return nil
}

// TestInboxGuardCatchesWrites plants a process and an adversary that
// write to their inboxes among well-behaved peers and requires the
// guard to name exactly those two.
func TestInboxGuardCatchesWrites(t *testing.T) {
	w := workload{maxRounds: 2, sys: func(relabel) system {
		return system{procs: []sim.Process{&vandalProc{1, true}, &vandalProc{2, false}, &vandalProc{3, false}}, faulty: []ids.ID{4}, adv: vandalAdv{}}
	}}
	plays := map[string]func(*inboxGuard) playFn{"boxed": (*inboxGuard).boxedPlay, "typed": guardedOver[*vandalProc](ring.WireCodec())}
	for name, mk := range plays {
		t.Run(name, func(t *testing.T) {
			g := &inboxGuard{}
			mk(g)(w.config(nil), w.sys(same))
			want := map[string]bool{"Adversary.Step of node 4 modified its round-2 inbox": false}
			step := "Step"
			if name == "typed" {
				step = "StepTyped"
			}
			want[step+" of node 1 modified its round-2 inbox"] = false
			for _, v := range g.violations {
				if _, ok := want[v]; !ok {
					t.Errorf("guard blamed a well-behaved call: %s", v)
				}
				want[v] = true
			}
			for v, seen := range want {
				if !seen {
					t.Errorf("guard missed %q (caught %v)", v, g.violations)
				}
			}
		})
	}
}
