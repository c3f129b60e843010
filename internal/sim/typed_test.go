package sim_test

// The typed plane's own contract: duplicates found by wire-value
// equality, and inboxes ordered by Compare without ever rendering a
// sort key.

import (
	"cmp"
	"fmt"
	"testing"

	"idonly/internal/core/ring"
	"idonly/internal/ids"
	"idonly/internal/sim"
	"idonly/internal/simtest"
)

// dupProc sends the same probe twice per round; the runner must drop
// the second copy whether it compares the wire value or its box.
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
	for st, play := range simtest.Plays(simtest.Typed[*dupProc](ring.WireCodec())) {
		m := play(sim.Config{MaxRounds: 1}, simtest.System{Procs: []sim.Process{&dupProc{id: 1, peer: 2}, &dupProc{id: 2, peer: 1}}})
		if m.MessagesDelivered != 4 {
			t.Fatalf("%s: MessagesDelivered = %d, want 4", st.Name, m.MessagesDelivered)
		}
		if m.MessagesDropped != 2 {
			t.Fatalf("%s: MessagesDropped = %d, want 2 (one duplicate per sender)", st.Name, m.MessagesDropped)
		}
	}
}

// keylessMsg is a wire union whose sort key must never be rendered:
// the typed plane orders by Compare alone.
type keylessMsg struct{ K, V int }

func (keylessMsg) AppendSortKey([]byte) []byte { panic("the typed plane rendered a sort key") }
func (m keylessMsg) Compare(o keylessMsg) int {
	return cmp.Or(cmp.Compare(m.K, o.K), cmp.Compare(m.V, o.V))
}

var keylessCodec = sim.Codec[keylessMsg]{
	Wrap:   func(p any) (keylessMsg, bool) { m, ok := p.(keylessMsg); return m, ok },
	Unwrap: func(m keylessMsg) any { return m },
}

// keylessSends is one node's round: two broadcasts, then to each peer
// three unicasts in descending order — one a repeat of a broadcast —
// and a payload unicast first and broadcast after, so inboxes carry
// log runs, lane runs that need sorting, merges and drops.
func keylessSends(round int, peers []ids.ID) []sim.SendT[keylessMsg] {
	out := []sim.SendT[keylessMsg]{sim.BroadcastT(keylessMsg{2, round}), sim.BroadcastT(keylessMsg{1, round})}
	for _, p := range peers {
		out = append(out, sim.UnicastT(p, keylessMsg{4, -round}), sim.UnicastT(p, keylessMsg{3, round}), sim.UnicastT(p, keylessMsg{1, round}))
	}
	return append(out, sim.UnicastT(peers[0], keylessMsg{5, round}), sim.BroadcastT(keylessMsg{5, round}))
}

// checkKeylessOrder fails unless the inbox is sorted by (sender,
// Compare) with no two entries equal.
func checkKeylessOrder(inbox []sim.MsgT[keylessMsg]) error {
	for i := 1; i < len(inbox); i++ {
		a, b := inbox[i-1], inbox[i]
		if a.From > b.From || a.From == b.From && a.Payload.Compare(b.Payload) >= 0 {
			return fmt.Errorf("entries %d and %d out of order: %v, %v", i-1, i, a, b)
		}
	}
	return nil
}

type keylessProc struct {
	id    ids.ID
	peers []ids.ID
	got   int
	err   error
}

func (p *keylessProc) ID() ids.ID    { return p.id }
func (p *keylessProc) Decided() bool { return false }
func (p *keylessProc) Output() any   { return nil }
func (p *keylessProc) StepTyped(round int, inbox []sim.MsgT[keylessMsg]) []sim.SendT[keylessMsg] {
	p.got += len(inbox)
	if err := checkKeylessOrder(inbox); err != nil && p.err == nil {
		p.err = fmt.Errorf("node %d round %d: %v", p.id, round, err)
	}
	return keylessSends(round, p.peers)
}

// keylessAdv plays keylessSends boxed for every faulty node and checks
// the boxed inboxes it is handed.
type keylessAdv struct {
	peers map[ids.ID][]ids.ID
	got   int
	err   error
}

func (a *keylessAdv) Step(node ids.ID, round int, inbox []sim.Message) []sim.Send {
	typed := make([]sim.MsgT[keylessMsg], len(inbox))
	for i, m := range inbox {
		typed[i] = sim.MsgT[keylessMsg]{From: m.From, Payload: m.Payload.(keylessMsg)}
	}
	a.got += len(inbox)
	if err := checkKeylessOrder(typed); err != nil && a.err == nil {
		a.err = fmt.Errorf("faulty node %d round %d: %v", node, round, err)
	}
	var out []sim.Send
	for _, s := range keylessSends(round, a.peers[node]) {
		out = append(out, sim.Send{To: s.To, Payload: s.Payload})
	}
	return out
}

type keylessBlindAdv struct{ *keylessAdv }

func (keylessBlindAdv) Blind() {}

// TestTypedPlaneRendersNoKey runs full rounds on NewTypedRunner over a
// union whose AppendSortKey panics, under a blind adversary and a
// reading one: sorting runs, merging lanes with the log, boxing the
// reading adversary's inboxes and dropping duplicates all go by
// Compare, and every inbox comes out in (sender, Compare) order.
func TestTypedPlaneRendersNoKey(t *testing.T) {
	all := ids.Sparse(ids.NewRand(8), 8)
	correct, faulty := all[:6], all[6:]
	peersOf := func(i int) []ids.ID {
		return []ids.ID{all[(i+1)%len(all)], all[(i+6)%len(all)], all[(i+7)%len(all)]}
	}
	for _, blind := range []bool{false, true} {
		procs := make([]*keylessProc, len(correct))
		for i, id := range correct {
			procs[i] = &keylessProc{id: id, peers: peersOf(i)}
		}
		reading := &keylessAdv{peers: make(map[ids.ID][]ids.ID)}
		for i, id := range faulty {
			reading.peers[id] = peersOf(len(correct) + i)
		}
		var adv sim.Adversary = reading
		if blind {
			adv = keylessBlindAdv{reading}
		}
		m := sim.NewTypedRunner(sim.Config{MaxRounds: 5}, procs, faulty, adv, keylessCodec).Run(nil)
		if m.MessagesDelivered == 0 || m.MessagesDropped == 0 {
			t.Fatalf("blind=%v: %d delivered, %d dropped; the schedule exercises nothing", blind, m.MessagesDelivered, m.MessagesDropped)
		}
		for _, p := range procs {
			if p.err != nil {
				t.Fatalf("blind=%v: %v", blind, p.err)
			}
			if p.got == 0 {
				t.Fatalf("blind=%v: node %d received nothing", blind, p.id)
			}
		}
		if reading.err != nil {
			t.Fatalf("blind=%v: %v", blind, reading.err)
		}
		if got := reading.got > 0; got == blind {
			t.Fatalf("blind=%v: the adversary was handed %d inbox entries", blind, reading.got)
		}
	}
}
