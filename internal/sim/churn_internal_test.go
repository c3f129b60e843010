package sim

// White-box consistency of the struct-of-arrays node table under
// churn: every insert/remove must leave the table sorted, the slot
// index (a quorum.Index numbered over the table) exactly inverse to
// it, every column the same length with each slot's lane view and
// process on the right row, and the churn gauges consistent. The
// external tests prove the schedule is right; this one proves the data
// structure the schedule depends on never drifts while joins and
// leaves interleave in a single run — on both instantiations of the
// core.

import (
	"cmp"
	"fmt"
	"testing"

	"idonly/internal/ids"
)

// hopMsg is what a hopProc broadcasts: a registered payload, so it can
// be the typed instantiation's wire type as well as a boxed payload.
type hopMsg struct {
	ID    ids.ID
	Round int
}

func (m hopMsg) AppendSortKey(dst []byte) []byte {
	return AppendInt(AppendUint(append(dst, 0xf0), uint64(m.ID)), int64(m.Round))
}

func (m hopMsg) Compare(o hopMsg) int {
	return cmp.Or(cmp.Compare(m.ID, o.ID), cmp.Compare(m.Round, o.Round))
}

var hopCodec = Codec[hopMsg]{
	Wrap:   func(p any) (hopMsg, bool) { m, ok := p.(hopMsg); return m, ok },
	Unwrap: func(m hopMsg) any { return m },
}

// hopProc broadcasts one message per round, unicasts another to itself
// — so its next inbox has a lane entry only it can own — and leaves
// the system after leaveAt rounds (0 = never). It steps on either
// instantiation.
type hopProc struct {
	id      ids.ID
	leaveAt int
	round   int
}

func (p *hopProc) ID() ids.ID    { return p.id }
func (p *hopProc) Decided() bool { return false }
func (p *hopProc) Output() any   { return p.round }
func (p *hopProc) Left() bool    { return p.leaveAt != 0 && p.round >= p.leaveAt }
func (p *hopProc) Step(round int, _ []Message) []Send {
	p.round = round
	return []Send{BroadcastPayload(hopMsg{p.id, round}), Unicast(p.id, hopMsg{p.id, -round})}
}
func (p *hopProc) StepTyped(round int, _ []MsgT[hopMsg]) []SendT[hopMsg] {
	p.round = round
	return []SendT[hopMsg]{BroadcastT(hopMsg{p.id, round}), UnicastT(p.id, hopMsg{p.id, -round})}
}

// silentAdv keeps the faulty rows exercised without traffic.
type silentAdv struct{}

func (silentAdv) Step(ids.ID, int, []Message) []Send { return nil }

// checkSlotInvariants checks the table between rounds. stepped says a
// round has run, so every correct slot's lane view — the bucket's
// scatter of that round — holds the one self-unicast its process sent.
func checkSlotInvariants[P ProcessT[M], M comparable](t *testing.T, r *TypedRunner[P, M], stepped bool, when string) {
	t.Helper()
	nn := len(r.idvec)
	for name, l := range map[string]int{
		"slot": r.slot.Len(), "procs": len(r.procs), "faulty": len(r.faulty), "done": len(r.done), "leaver": len(r.leaver),
		"cur": len(r.cur),
	} {
		if l != nn {
			t.Fatalf("%s: column %s has %d entries for %d nodes", when, name, l, nn)
		}
	}
	for i, id := range r.idvec {
		if i > 0 && r.idvec[i-1] >= id {
			t.Fatalf("%s: node table unsorted at %d: %d >= %d", when, i, r.idvec[i-1], id)
		}
		if j, ok := r.slot.Lookup(id); !ok || int(j) != i {
			t.Fatalf("%s: slot.Lookup(%d) = %d,%v, want %d", when, id, j, ok, i)
		}
		// A correct slot's lane holds its own self-unicast and nothing
		// else; the faulty slots, silent, hold nothing. Each view is
		// capacity-limited, so an append could not spill into the next
		// slot's run. A column shifted out of step with the others shows
		// as a lane on the wrong row.
		wire := r.cur[i]
		want := 0
		if stepped && !r.faulty[i] {
			want = 1
		}
		if len(wire.msgs) != want {
			t.Fatalf("%s: slot %d (faulty=%v) holds %d lane entries, want %d",
				when, i, r.faulty[i], len(wire.msgs), want)
		}
		if want == 1 && wire.msgs[0].From != id {
			t.Fatalf("%s: slot %d (id %d) holds a lane entry from %d", when, i, id, wire.msgs[0].From)
		}
		if cap(wire.msgs) != len(wire.msgs) {
			t.Fatalf("%s: slot %d's lane is not a capacity-limited view", when, i)
		}
		if r.faulty[i] {
			if r.leaver[i] != nil || r.done[i] {
				t.Fatalf("%s: faulty slot %d carries process state", when, i)
			}
		} else if got := r.procs[i].ID(); got != id {
			t.Fatalf("%s: slot %d holds process %d, want %d", when, i, got, id)
		}
	}
}

// slotMapUnderChurn interleaves correct joins, graceful leaves, faulty
// joins and faulty leaves across one run and checks the table/slot
// invariants after every round. mk builds the runner over the founders;
// lift presents a hopProc as the instantiation's process type.
func slotMapUnderChurn[P ProcessT[M], M comparable](t *testing.T, mk func(cfg Config, founders []*hopProc, faulty []ids.ID) *TypedRunner[P, M], lift func(*hopProc) P) {
	rng := ids.NewRand(123)
	all := ids.Sparse(rng, 16)
	var procs []*hopProc
	// 8 correct founders; three leave at staggered rounds.
	for i, id := range all[:8] {
		leaveAt := 0
		if i >= 5 {
			leaveAt = 4 + 3*i // rounds 19, 22, 25
		}
		procs = append(procs, &hopProc{id: id, leaveAt: leaveAt})
	}
	faulty := all[8:11]
	r := mk(Config{MaxRounds: 40}, procs, faulty)
	checkSlotInvariants(t, r, false, "after construction")

	// Correct joiners at rounds 3, 5, 7, 9 — two of them leave again.
	for i, id := range all[11:15] {
		leaveAt := 0
		if i%2 == 0 {
			leaveAt = 15 + i
		}
		r.ScheduleJoin(3+2*i, lift(&hopProc{id: id, leaveAt: leaveAt}))
	}
	// A faulty late joiner.
	r.ScheduleFaultyJoin(6, all[15])

	// Three faulty leaves, the late joiner's among them.
	r.ScheduleFaultyLeave(10, faulty[0])
	r.ScheduleFaultyLeave(12, all[15])
	r.ScheduleFaultyLeave(20, faulty[1])
	for round := 1; round <= 40; round++ {
		r.StepRound()
		checkSlotInvariants(t, r, true, fmt.Sprintf("after round %d", round))
	}

	// Final membership: 8 founders - 3 leavers + 4 joiners - 2 joiner
	// leavers + 3 faulty + 1 late faulty - 3 faulty leaves = 8.
	if got := len(r.Active()); got != 8 {
		t.Fatalf("final membership %d, want 8 (active: %v)", got, r.Active())
	}
	m := r.Metrics()
	if m.Joins != 5 {
		t.Fatalf("Joins = %d, want 5 (4 correct + 1 faulty)", m.Joins)
	}
	if m.Leaves != 8 {
		t.Fatalf("Leaves = %d, want 8 (5 graceful + 3 faulty)", m.Leaves)
	}
	if m.PeakNodes <= 11 || m.MinNodes < 8 || m.MinNodes > m.PeakNodes {
		t.Fatalf("membership extremes peak=%d min=%d inconsistent", m.PeakNodes, m.MinNodes)
	}
	// Removed and departed ids must not resolve; present ones must.
	if _, ok := r.slot.Lookup(faulty[0]); ok {
		t.Fatal("departed faulty id still resolves")
	}
	if _, ok := r.slot.Lookup(procs[5].id); ok {
		t.Fatal("departed leaver still resolves")
	}
}

func TestSlotMapConsistencyUnderChurn(t *testing.T) {
	t.Run("boxed", func(t *testing.T) {
		slotMapUnderChurn(t, func(cfg Config, founders []*hopProc, faulty []ids.ID) *TypedRunner[boxedProc, any] {
			return NewRunner(cfg, founders, faulty, silentAdv{}).TypedRunner
		}, func(p *hopProc) boxedProc { return boxedProc{p} })
	})
	t.Run("typed", func(t *testing.T) {
		slotMapUnderChurn(t, func(cfg Config, founders []*hopProc, faulty []ids.ID) *TypedRunner[*hopProc, hopMsg] {
			return NewTypedRunner(cfg, founders, faulty, silentAdv{}, hopCodec)
		}, func(p *hopProc) *hopProc { return p })
	})
}
