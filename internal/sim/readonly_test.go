package sim_test

// The inbox is read-only: every golden system, guarded, on every
// strategy (simtest.Guard), and a planted writer the guard must name.

import (
	"slices"
	"testing"

	"idonly/internal/core/ring"
	"idonly/internal/ids"
	"idonly/internal/sim"
	"idonly/internal/simtest"
)

// TestInboxIsReadOnly replays every golden system on every strategy,
// alone and beside copies of itself, with every inbox guarded (one
// guard per copy): no protocol or adversary may write to what it was
// handed, and the decorated runs must still reproduce the pinned
// digests.
func TestInboxIsReadOnly(t *testing.T) {
	simtest.Matrix(t, slices.Concat(goldenTraces, goldenChurn), true)
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
// guard to name exactly those two, on every strategy.
func TestInboxGuardCatchesWrites(t *testing.T) {
	for st, play := range simtest.Plays(simtest.Typed[*vandalProc](ring.WireCodec())) {
		t.Run(st.Name, func(t *testing.T) {
			g := &simtest.Guard{}
			play(sim.Config{MaxRounds: 2}, simtest.System{Guard: g, Faulty: []ids.ID{4}, Adv: vandalAdv{},
				Procs: []sim.Process{&vandalProc{1, true}, &vandalProc{2, false}, &vandalProc{3, false}}})
			want := map[string]bool{"Adversary.Step of node 4 modified its round-2 inbox": false}
			step := "Step"
			if st.Name == "typed" {
				step = "StepTyped"
			}
			want[step+" of node 1 modified its round-2 inbox"] = false
			for _, v := range g.Violations {
				if _, ok := want[v]; !ok {
					t.Errorf("guard blamed a well-behaved call: %s", v)
				}
				want[v] = true
			}
			for v, seen := range want {
				if !seen {
					t.Errorf("guard missed %q (caught %v)", v, g.Violations)
				}
			}
		})
	}
}
