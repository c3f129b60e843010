package simtest

// The inbox is read-only. The round's sorted broadcast log is the very
// slice every recipient with no unicasts is handed, so one process
// writing to its inbox would rewrite its peers'. A guarded run checks
// the contract from outside the core: it decorates every Step,
// StepTyped and Adversary.Step with a copy of the inbox taken before
// the call, compared with the inbox after it.

import (
	"fmt"
	"slices"

	"idonly/internal/ids"
	"idonly/internal/sim"
)

// Guard collects the calls that changed the inbox they were handed.
// One guard serves one run.
type Guard struct {
	Calls      int
	Violations []string
}

// Err reports a guard that saw no Step or caught a write; a nil guard
// checked nothing and reports nil.
func (g *Guard) Err() error {
	switch {
	case g == nil:
		return nil
	case g.Calls == 0:
		return fmt.Errorf("the guard saw no Step")
	case len(g.Violations) > 0:
		return fmt.Errorf("%d inbox writes, first: %s", len(g.Violations), g.Violations[0])
	}
	return nil
}

// check runs step and records it as a violation if the inbox changed
// across the call.
func check[M comparable, R any](g *Guard, what string, id ids.ID, round int, inbox []sim.MsgT[M], step func() R) R {
	before := slices.Clone(inbox)
	out := step()
	g.Calls++
	if !slices.Equal(inbox, before) {
		g.Violations = append(g.Violations, fmt.Sprintf("%s of node %d modified its round-%d inbox", what, id, round))
	}
	return out
}

// guardedProc decorates a boxed process; Left forwards an optional
// Leaver.
type guardedProc struct {
	sim.Process
	g *Guard
}

func (p guardedProc) Step(round int, inbox []sim.Message) []sim.Send {
	return check(p.g, "Step", p.ID(), round, inbox, func() []sim.Send { return p.Process.Step(round, inbox) })
}

func (p guardedProc) Left() bool {
	l, ok := p.Process.(sim.Leaver)
	return ok && l.Left()
}

// guardedT decorates a process on a typed instantiation.
type guardedT[M comparable] struct {
	sim.ProcessT[M]
	g *Guard
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
	g *Guard
}

func (a guardedAdv) Step(node ids.ID, round int, inbox []sim.Message) []sim.Send {
	return check(a.g, "Adversary.Step", node, round, inbox, func() []sim.Send { return a.Adversary.Step(node, round, inbox) })
}
