package sim

// Differential tests of the two mechanisms under the runner core
// (plane.go), each against a naive model that lives only here: the
// source-keyed duplicate filter against a map keyed by (to, from,
// payload), and the run sort against sort.Sort over the whole inbox.

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"idonly/internal/ids"
)

// regPayload is a registered payload (nonzero ordinal): the filter
// identifies it by (ordinal, key bytes).
type regPayload struct{ V int }

func (p regPayload) SortKeyOrdinal() uint32 { return 0xfffe0001 }
func (p regPayload) AppendSortKey(dst []byte) []byte {
	return append(AppendInt(append(dst, '{'), int64(p.V)), '}')
}

// ord0Payload renders its own key but opts out of the fast filter, as a
// wrapper around an unregistered inner payload does.
type ord0Payload struct{ V int }

func (p ord0Payload) SortKeyOrdinal() uint32 { return 0 }
func (p ord0Payload) AppendSortKey(dst []byte) []byte {
	return append(AppendInt(append(dst, '{'), int64(p.V)), '}')
}

// plainPayload is unregistered: fmt key, interface-identity filter.
type plainPayload struct{ V int }

// scriptProc plays a fixed schedule of sends, keeps a copy of every
// inbox it was handed, and leaves after round leaveAt (0 = never).
type scriptProc struct {
	id      ids.ID
	script  map[int][]Send
	leaveAt int
	round   int
	inboxes map[int][]Message
}

func (p *scriptProc) ID() ids.ID    { return p.id }
func (p *scriptProc) Decided() bool { return false }
func (p *scriptProc) Output() any   { return nil }
func (p *scriptProc) Left() bool    { return p.leaveAt != 0 && p.round >= p.leaveAt }
func (p *scriptProc) Step(round int, inbox []Message) []Send {
	p.round = round
	p.inboxes[round] = append([]Message(nil), inbox...)
	return p.script[round]
}

// naiveDelivery is the model's key: one entry per delivery.
type naiveDelivery struct {
	to, from ids.ID
	payload  any
}

// TestFilterMatchesNaiveModel runs seeded schedules through the boxed
// Runner (the pool mixes registered and unregistered payload types, so
// no wire union holds it) and through the model the paper states — a message
// is dropped exactly when the same (to, from, payload) was already
// delivered this round — and compares the counters and every inbox.
// The sizes cross the filter's regimes: all-vec (5), inline word with
// vec→bitmap upgrades (40), and 64 or 128 founders plus a joiner, which
// moves the table from the inline word to allocated bitmaps, or across
// a bitmap word boundary, mid-run.
func TestFilterMatchesNaiveModel(t *testing.T) {
	const rounds = 8
	for _, n := range []int{5, 40, 64, 128} {
		for seed := uint64(1); seed <= 4; seed++ {
			rng := ids.NewRand(seed*1000 + uint64(n))
			universe := ids.SortIDs(ids.Sparse(rng, n+3))
			founders, joiner, absent := universe[:n], universe[n], universe[n+1:]
			leaver := founders[rng.Intn(n)]
			const joinRound, leaveRound = 3, 5

			pool := []any{
				regPayload{1}, regPayload{2}, regPayload{3},
				ord0Payload{1}, ord0Payload{2},
				plainPayload{1}, plainPayload{2},
			}
			pick := func() any { return pool[rng.Intn(len(pool))] }
			target := func() ids.ID { // present, joining, leaving or never there
				if rng.Intn(6) == 0 {
					return absent[rng.Intn(len(absent))]
				}
				return universe[rng.Intn(n+1)]
			}
			script := func() map[int][]Send {
				s := make(map[int][]Send)
				for r := 1; r <= rounds; r++ {
					for k := rng.Intn(5); k > 0; k-- {
						p := pick()
						switch rng.Intn(6) {
						case 0:
							s[r] = append(s[r], BroadcastPayload(p))
						case 1:
							s[r] = append(s[r], Unicast(target(), p))
						case 2:
							s[r] = append(s[r], Unicast(target(), p), BroadcastPayload(p))
						case 3:
							s[r] = append(s[r], BroadcastPayload(p), Unicast(target(), p))
						case 4: // the same send twice
							to := target()
							s[r] = append(s[r], Unicast(to, p), Unicast(to, p))
						case 5: // one payload to most of the system, then to all of it
							for _, j := range rng.Perm(n)[:3*n/4] {
								s[r] = append(s[r], Unicast(founders[j], p))
							}
							s[r] = append(s[r], BroadcastPayload(p))
						}
					}
				}
				return s
			}

			procs := make(map[ids.ID]*scriptProc)
			var founding []Process
			for _, id := range universe[:n+1] {
				p := &scriptProc{id: id, script: script(), inboxes: make(map[int][]Message)}
				if id == leaver {
					p.leaveAt = leaveRound
				}
				procs[id] = p
				if id != joiner {
					founding = append(founding, p)
				}
			}
			r := NewRunner(Config{MaxRounds: rounds}, founding, nil, nil)
			r.ScheduleJoin(joinRound, procs[joiner])
			got := r.Run(nil)

			// The model: same schedule, one map entry per delivery.
			var delivered, dropped int64
			var byRound []int64
			want := make(map[ids.ID]map[int][]Message) // id -> round consumed -> inbox
			for r := 1; r <= rounds; r++ {
				var active []ids.ID
				for _, id := range universe[:n+1] {
					if (id == joiner && r < joinRound) || (id == leaver && r > leaveRound) {
						continue
					}
					active = append(active, id)
				}
				seen := make(map[naiveDelivery]bool)
				var count int64
				for _, from := range active {
					for _, s := range procs[from].script[r] {
						tos := []ids.ID{s.To}
						if s.To == Broadcast {
							tos = active
						}
						for _, to := range tos {
							if i := sort.Search(len(active), func(i int) bool { return active[i] >= to }); i == len(active) || active[i] != to {
								continue // absent: the send vanishes
							}
							k := naiveDelivery{to, from, s.Payload}
							if seen[k] {
								dropped++
								continue
							}
							seen[k] = true
							count++
							if want[to] == nil {
								want[to] = make(map[int][]Message)
							}
							want[to][r+1] = append(want[to][r+1], Message{From: from, Payload: s.Payload})
						}
					}
				}
				delivered += count
				byRound = append(byRound, count)
			}

			tag := fmt.Sprintf("n=%d seed=%d", n, seed)
			if got.MessagesDelivered != delivered || got.MessagesDropped != dropped {
				t.Fatalf("%s: delivered/dropped = %d/%d, model %d/%d", tag, got.MessagesDelivered, got.MessagesDropped, delivered, dropped)
			}
			if fmt.Sprint(got.ByRound) != fmt.Sprint(byRound) {
				t.Fatalf("%s: ByRound = %v, model %v", tag, got.ByRound, byRound)
			}
			if dropped == 0 {
				t.Fatalf("%s: schedule produced no duplicates", tag)
			}
			for id, p := range procs {
				for round, inbox := range p.inboxes {
					if !sameMultiset(inbox, want[id][round]) {
						t.Fatalf("%s: node %d round %d inbox\n got  %v\n want %v", tag, id, round, inbox, want[id][round])
					}
				}
			}
		}
	}
}

func sameMultiset(a, b []Message) bool {
	if len(a) != len(b) {
		return false
	}
	count := make(map[Message]int)
	for _, m := range a {
		count[m]++
	}
	for _, m := range b {
		count[m]--
	}
	for _, c := range count {
		if c != 0 {
			return false
		}
	}
	return true
}

// wholeInboxSort is the sort the run sort replaced, kept as the model:
// sort.Sort over the entire inbox by (From, key bytes).
type wholeInboxSort struct {
	msgs  []Message
	keys  []keyRef
	arena []byte
}

func (b *wholeInboxSort) key(i int) []byte {
	return b.arena[b.keys[i].off : b.keys[i].off+b.keys[i].n]
}
func (b *wholeInboxSort) Len() int { return len(b.msgs) }
func (b *wholeInboxSort) Less(i, j int) bool {
	if b.msgs[i].From != b.msgs[j].From {
		return b.msgs[i].From < b.msgs[j].From
	}
	return bytes.Compare(b.key(i), b.key(j)) < 0
}
func (b *wholeInboxSort) Swap(i, j int) {
	b.msgs[i], b.msgs[j] = b.msgs[j], b.msgs[i]
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
}

// tieA and tieB render the same key bytes for the same ID, the way
// parallel.NoPref and parallel.NoStrongPref do under one SessMsg: a
// cross-type tie the comparator cannot break.
type (
	tieA struct{ ID int }
	tieB struct{ ID int }
)

// genInbox builds a sender-ordered inbox as delivery leaves it: a run
// per sender, keys in scrambled order. Run lengths straddle the
// insertion budget (short runs, long nearly-sorted runs, long reversed
// runs that need the wider Shell passes). With ties, every key occurs
// under both tie types.
func genInbox(rng *ids.Rand, ties bool) (msgs []Message, keys []keyRef, arena []byte) {
	add := func(from ids.ID, p any, key string) {
		msgs = append(msgs, Message{From: from, Payload: p})
		keys = append(keys, keyRef{off: uint32(len(arena)), n: uint32(len(key))})
		arena = append(arena, key...)
	}
	for _, from := range ids.SortIDs(ids.Sparse(rng, 1+rng.Intn(12))) {
		var vals []int
		switch rng.Intn(4) {
		case 0: // short, scrambled
			vals = rng.Perm(1 + rng.Intn(17))
		case 1: // long, nearly sorted
			for i := 0; i < 150; i++ {
				vals = append(vals, i)
			}
			for k := 0; k < 10; k++ {
				i := rng.Intn(149)
				vals[i], vals[i+1] = vals[i+1], vals[i]
			}
		case 2: // long, reversed: exhausts the insertion budget
			for i := 200; i > 0; i-- {
				vals = append(vals, i)
			}
		case 3: // long, scrambled
			vals = rng.Perm(100)
		}
		for _, v := range vals {
			key := fmt.Sprintf("{%04d}", v)
			if ties {
				add(from, tieA{v}, key)
				add(from, tieB{v}, key)
			} else {
				add(from, regPayload{v}, key)
			}
		}
	}
	return msgs, keys, arena
}

func TestRunSortMatchesWholeInboxSort(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		// Unique (From, key): there is one sorted order, and both sorts
		// must produce it.
		msgs, keys, arena := genInbox(ids.NewRand(seed), false)
		model := wholeInboxSort{append([]Message(nil), msgs...), append([]keyRef(nil), keys...), arena}
		sort.Sort(&model)
		lane := inboxBuf{msgs: msgs, keys: keys}
		lane.sort(arena)
		for i := range msgs {
			if lane.msgs[i] != model.msgs[i] || lane.keys[i] != model.keys[i] {
				t.Fatalf("seed %d: entry %d is %v, whole-inbox sort has %v", seed, i, lane.msgs[i], model.msgs[i])
			}
		}

		// Cross-type key ties: any order of the tied entries is a valid
		// sort, so compare what is defined — the order is non-decreasing
		// in (From, key), every key still sits on its own payload, and
		// nothing was lost or duplicated.
		msgs, keys, arena = genInbox(ids.NewRand(seed), true)
		before := append([]Message(nil), msgs...)
		lane = inboxBuf{msgs: msgs, keys: keys}
		lane.sort(arena)
		check := wholeInboxSort{lane.msgs, lane.keys, arena}
		for i := range msgs {
			if i > 0 && check.Less(i, i-1) {
				t.Fatalf("seed %d: entries %d and %d out of (From, key) order", seed, i-1, i)
			}
			var id int
			switch p := msgs[i].Payload.(type) {
			case tieA:
				id = p.ID
			case tieB:
				id = p.ID
			}
			if want := fmt.Sprintf("{%04d}", id); string(check.key(i)) != want {
				t.Fatalf("seed %d: entry %d carries key %q, its payload renders %q", seed, i, check.key(i), want)
			}
		}
		if !sameMultiset(lane.msgs, before) {
			t.Fatalf("seed %d: the sort changed the inbox's contents", seed)
		}
	}
}

// A lane out of sender order can only come from a runner bug; the sort
// refuses it instead of papering over it with a slower path.
func TestRunSortPanicsOnUnorderedSenders(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("sort accepted a lane whose sender ids decrease")
		}
	}()
	lane := inboxBuf{
		msgs: []Message{{From: 2, Payload: regPayload{1}}, {From: 1, Payload: regPayload{1}}},
		keys: []keyRef{{0, 3}, {0, 3}},
	}
	lane.sort([]byte("{1}"))
}
