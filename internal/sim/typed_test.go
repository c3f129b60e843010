package sim_test

// Bit-identity of the two instantiations beyond the pinned goldens
// (golden_test.go replays those on both): the scale-frontier ring
// workload held equal across boxed and typed, and the duplicate filter
// keyed on a wire value.

import (
	"testing"

	"idonly/internal/core/ring"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// ringWorkload is the n-node ring flood, on both instantiations.
func ringWorkload(n int) workload {
	all := ids.Sparse(ids.NewRand(21), n)
	horizon := ring.Horizon(n)
	return workload{"ring", horizon + 2, true, func(relabel) system {
		var procs []sim.Process
		for i, id := range all {
			procs = append(procs, ring.New(id, ring.Successors(all, i), horizon))
		}
		return system{procs: procs}
	}, typedOver[*ring.Node](ring.WireCodec()), false}
}

// TestTypedRingMatchesReference holds the scale-frontier workload
// byte-equal across the two instantiations at n=1000 — the sim-level
// half of the engine's large-n smoke test.
func TestTypedRingMatchesReference(t *testing.T) {
	w := ringWorkload(1000)
	if got, want := digestRun(w, w.typed), digestRun(w, boxed); got != want {
		t.Fatalf("ring schedule diverged: typed %s, boxed %s", got, want)
	}
}

// dupProc sends the same probe twice per round; the duplicate filter
// must drop the second copy whether it hashes the wire value or its
// box.
type dupProc struct {
	id   ids.ID
	peer ids.ID
}

func (p *dupProc) ID() ids.ID    { return p.id }
func (p *dupProc) Decided() bool { return false }
func (p *dupProc) Output() any   { return nil }
func (p *dupProc) StepTyped(round int, inbox []sim.MsgT[ring.Probe]) []sim.SendT[ring.Probe] {
	return []sim.SendT[ring.Probe]{
		sim.UnicastT(p.peer, ring.Probe{Min: 7}),
		sim.UnicastT(p.peer, ring.Probe{Min: 7}),
		sim.UnicastT(p.peer, ring.Probe{Min: 8}),
	}
}
func (p *dupProc) Step(round int, inbox []sim.Message) []sim.Send {
	var out []sim.Send
	for _, s := range p.StepTyped(round, nil) {
		out = append(out, sim.Unicast(s.To, s.Payload))
	}
	return out
}

func TestTypedRunnerDeduplicates(t *testing.T) {
	w := workload{maxRounds: 1, typed: typedOver[*dupProc](ring.WireCodec()), sys: func(relabel) system {
		return system{procs: []sim.Process{&dupProc{id: 1, peer: 2}, &dupProc{id: 2, peer: 1}}}
	}}
	for name, play := range w.instantiations() {
		m := play(w.config(nil), w.sys(same))
		if m.MessagesDelivered != 4 {
			t.Fatalf("%s: MessagesDelivered = %d, want 4", name, m.MessagesDelivered)
		}
		if m.MessagesDropped != 2 {
			t.Fatalf("%s: MessagesDropped = %d, want 2 (one duplicate per sender)", name, m.MessagesDropped)
		}
	}
}
