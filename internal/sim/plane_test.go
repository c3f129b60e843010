package sim

// Differential tests of the mechanisms under the runner core
// (plane.go), each against a model that lives only here: the
// source-keyed duplicate filter against a map keyed by (to, from,
// payload), the run sort against sort.Sort over the whole inbox, and
// inbox assembly from the broadcast log and the exception lanes against
// the per-recipient plane it replaced.

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"testing"

	"idonly/internal/ids"
)

// regPayload is a registered payload: it renders its own key.
type regPayload struct{ V int }

func (p regPayload) AppendSortKey(dst []byte) []byte {
	return append(AppendInt(append(dst, '{'), int64(p.V)), '}')
}

// twinPayload renders exactly regPayload's keys under another type: a
// cross-type key tie the value-keyed filter must keep apart.
type twinPayload struct{ V int }

func (p twinPayload) AppendSortKey(dst []byte) []byte {
	return append(AppendInt(append(dst, '{'), int64(p.V)), '}')
}

// plainPayload is unregistered: fmt key, interface-identity filter.
type plainPayload struct{ V int }

// scriptProc plays a fixed schedule of sends, keeps a copy of every
// inbox it was handed, and leaves after round leaveAt (0 = never). It
// steps boxed, and typed over asmWire.
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
func (p *scriptProc) StepTyped(round int, inbox []MsgT[asmWire]) []SendT[asmWire] {
	boxed := make([]Message, len(inbox))
	for i, m := range inbox {
		boxed[i] = Message{From: m.From, Payload: asmCodec.Unwrap(m.Payload)}
	}
	var out []SendT[asmWire]
	for _, s := range p.Step(round, boxed) {
		w, _ := asmCodec.Wrap(s.Payload)
		out = append(out, SendT[asmWire]{To: s.To, Payload: w})
	}
	return out
}

// naiveDelivery is the model's key: one entry per delivery.
type naiveDelivery struct {
	to, from ids.ID
	payload  any
}

// TestFilterIndexMatchesMap holds the filter's open-addressing index to
// a map: over rounds of a few to thousands of sources — from a table of
// 32 slots, so the large rounds grow it, and back, so small rounds run
// in a table sized for a flood — resolving a source returns the set it
// got on first sight that round, and distinct sources get distinct sets
// numbered in first-sight order.
func TestFilterIndexMatchesMap(t *testing.T) {
	var f srcFilter[srcKey[any]]
	f.init(1)
	rng := ids.NewRand(3)
	for round, sources := range []int{5, 3000, 40, 9000, 2, 0, 700, 1} {
		f.flip()
		model := make(map[srcKey[any]]int32)
		for k := 0; k < 3*sources; k++ {
			// Mixed types and a small value range: repeats within the round,
			// and values of two types that compare unequal.
			v := rng.Intn(sources)
			var p any = v
			if v%3 == 0 {
				p = regPayload{v}
			}
			key := srcKey[any]{from: ids.ID(v % 7), payload: p}
			got := f.resolve(key)
			idx := f.lastIdx
			if got != &f.sets[idx] {
				t.Fatalf("round %d: source %v: resolve returned another set than its index names", round, key)
			}
			want, seen := model[key]
			if !seen {
				want = int32(len(model))
				model[key] = want
			}
			if idx != want {
				t.Fatalf("round %d: source %v resolved to set %d, want %d", round, key, idx, want)
			}
		}
		if len(f.sets) != len(model) || len(f.keys) != len(model) {
			t.Fatalf("round %d: %d sets and %d keys for %d sources", round, len(f.sets), len(f.keys), len(model))
		}
	}
}

// TestFilterMatchesNaiveModel runs seeded schedules through the boxed
// Runner (the pool mixes registered and unregistered payload types, so
// no wire union holds it) and through the model the paper states — a message
// is dropped exactly when the same (to, from, payload) was already
// delivered this round — and compares the counters and every inbox.
// The sizes cross the filter's regimes: all-vec (5), vec→bitset
// upgrades within a quorum.Set's inline word (40), and 64 or 128
// founders plus a joiner, which moves the table past the inline word
// into overflow words, or across an overflow word boundary, mid-run.
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
				twinPayload{1}, twinPayload{2},
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
		keys: []keyRef{{off: 0, n: 3}, {off: 0, n: 3}},
	}
	lane.sort([]byte("{1}"))
}

// asmWire is FuzzInboxAssembly's wire union over the payload pool: K
// picks regPayload, tieA or tieB. All three render "{V}", so one value
// under two kinds is a cross-type key tie.
type asmWire struct {
	K uint8
	V int
}

func (w asmWire) AppendSortKey(dst []byte) []byte { return appendBoxedKey(dst, asmCodec.Unwrap(w)) }

var asmCodec = Codec[asmWire]{
	Wrap: func(p any) (asmWire, bool) {
		switch v := p.(type) {
		case regPayload:
			return asmWire{0, v.V}, true
		case tieA:
			return asmWire{1, v.ID}, true
		case tieB:
			return asmWire{2, v.ID}, true
		}
		return asmWire{}, false
	},
	Unwrap: func(w asmWire) any { return asmPayload(int(w.K), w.V) },
}

func asmPayload(kind, v int) any {
	switch kind % 3 {
	case 1:
		return tieA{v}
	case 2:
		return tieB{v}
	}
	return regPayload{v}
}

// The assembly system: correct founders 10, 30, 40 (leaves after round
// 1) and 60; faulty founders 20 and 50; a correct joiner 35 and a
// faulty joiner 55 at round 2. Unicasts may also target 99, never
// present. Rounds 1 and 2 carry the decoded sends; the inboxes of
// rounds 2 and 3 are what assembly produced from them.
var asmTargets = []ids.ID{10, 20, 30, 35, 40, 50, 55, 60, 99}

func asmPresent(round int) []ids.ID {
	if round == 1 {
		return []ids.ID{10, 20, 30, 40, 50, 60}
	}
	return []ids.ID{10, 20, 30, 35, 50, 55, 60}
}

func asmFaulty(id ids.ID) bool { return id == 20 || id == 50 || id == 55 }

// asmScript is round -> sender -> sends, in send order.
type asmScript map[int]map[ids.ID][]Send

// asmChunk encodes one op of the decoder below: the sender is an index
// into asmPresent(round), the target an index into asmTargets, and c
// picks the payload — kind c%3, value c/3.
func asmChunk(round, sender int, op byte, target int, c byte) []byte {
	return []byte{byte(sender<<1 | (round - 1)), byte(target<<3) | op, c}
}

// decodeAssembly reads three bytes per op. Ops: 0 broadcast, 1
// unicast, 2 unicast then broadcast of one source, 3 broadcast then
// unicast, 4 every send twice, 5 and 6 a burst of 6–12 distinct
// payloads in descending key order (a run past the insertion budget,
// sorted by the Shell passes) as broadcasts or as unicasts, 7 a
// unicast and then a broadcast tied with it on key bytes.
func decodeAssembly(data []byte) asmScript {
	sc := asmScript{1: {}, 2: {}}
	for ; len(data) >= 3; data = data[3:] {
		a, b, c := data[0], data[1], data[2]
		round := 1 + int(a&1)
		senders := asmPresent(round)
		from := senders[int(a>>1)%len(senders)]
		to := asmTargets[int(b>>3)%len(asmTargets)]
		p := asmPayload(int(c%3), int(c/3))
		var out []Send
		switch b & 7 {
		case 0:
			out = []Send{BroadcastPayload(p)}
		case 1:
			out = []Send{Unicast(to, p)}
		case 2:
			out = []Send{Unicast(to, p), BroadcastPayload(p)}
		case 3:
			out = []Send{BroadcastPayload(p), Unicast(to, p)}
		case 4:
			out = []Send{BroadcastPayload(p), BroadcastPayload(p), Unicast(to, p), Unicast(to, p)}
		case 5, 6:
			for v := 106 + int(c)%7; v > 100; v-- {
				q := asmPayload(int(c%3), v)
				if b&7 == 5 {
					out = append(out, BroadcastPayload(q))
				} else {
					out = append(out, Unicast(to, q))
				}
			}
		case 7:
			out = []Send{Unicast(to, asmPayload(int(c%3)+1, int(c/3))), BroadcastPayload(p)}
		}
		sc[round][from] = append(sc[round][from], out...)
	}
	return sc
}

// asmModel is the per-recipient plane the broadcast log replaced, kept
// as the model: every send renders its own key, every delivery is
// appended to its recipient's own lane unless (to, from, payload) was
// already delivered this round, and each lane is run-sorted by
// laneBuf.sort. It returns id -> round -> inbox, and the counters.
func asmModel(sc asmScript) (map[ids.ID]map[int][]Message, Metrics) {
	inboxes := make(map[ids.ID]map[int][]Message)
	var m Metrics
	for round := 1; round <= 2; round++ {
		present := asmPresent(round)
		lanes := make(map[ids.ID]*inboxBuf)
		seen := make(map[naiveDelivery]bool)
		var arena []byte
		m.ByRound = append(m.ByRound, 0)
		for _, from := range present {
			for _, s := range sc[round][from] {
				off := len(arena)
				arena = appendBoxedKey(arena, s.Payload)
				k := keyRef{off: uint32(off), n: uint32(len(arena) - off)}
				for _, to := range present {
					if s.To != Broadcast && s.To != to {
						continue
					}
					if d := (naiveDelivery{to, from, s.Payload}); seen[d] {
						m.MessagesDropped++
						continue
					} else {
						seen[d] = true
					}
					if lanes[to] == nil {
						lanes[to] = &inboxBuf{}
					}
					lanes[to].push(from, s.Payload, k)
					m.MessagesDelivered++
					m.ByRound[round-1]++
				}
			}
		}
		for _, to := range asmPresent(round + 1) {
			in := []Message{}
			if l := lanes[to]; l != nil {
				l.sort(arena)
				in = l.msgs
			}
			if inboxes[to] == nil {
				inboxes[to] = make(map[int][]Message)
			}
			inboxes[to][round+1] = in
		}
	}
	m.ByRound = append(m.ByRound, 0) // round 3 sends nothing
	return inboxes, m
}

// asmAdv drives the faulty nodes from the script and keeps a copy of
// every inbox it was handed.
type asmAdv struct {
	script  asmScript
	inboxes map[ids.ID]map[int][]Message
}

func (a *asmAdv) Step(node ids.ID, round int, inbox []Message) []Send {
	if a.inboxes[node] == nil {
		a.inboxes[node] = make(map[int][]Message)
	}
	a.inboxes[node][round] = append([]Message(nil), inbox...)
	return a.script[round][node]
}

// asmBlindAdv drives the faulty nodes from the script without reading
// an inbox, and says so: the runner then keeps none for them. It counts
// the inboxes it was handed anyway, which must all be nil.
type asmBlindAdv struct {
	script asmScript
	handed int
}

func (a *asmBlindAdv) Step(node ids.ID, round int, inbox []Message) []Send {
	if inbox != nil {
		a.handed++
	}
	return a.script[round][node]
}

func (*asmBlindAdv) Blind() {}

// runAssembly plays the decoded rounds on the boxed or the typed
// instantiation, under the inbox-recording adversary or the blind one,
// and returns what every node was handed — the faulty nodes only under
// the recording one — and the counters.
func runAssembly(t *testing.T, sc asmScript, typed, blind bool) (map[ids.ID]map[int][]Message, Metrics) {
	procs := make(map[ids.ID]*scriptProc)
	for _, id := range []ids.ID{10, 30, 35, 40, 60} {
		p := &scriptProc{id: id, script: map[int][]Send{1: sc[1][id], 2: sc[2][id]}, inboxes: make(map[int][]Message)}
		if id == 40 {
			p.leaveAt = 1
		}
		procs[id] = p
	}
	founders := []*scriptProc{procs[10], procs[30], procs[40], procs[60]}
	rec := &asmAdv{script: sc, inboxes: make(map[ids.ID]map[int][]Message)}
	blindAdv := &asmBlindAdv{script: sc}
	var adv Adversary = rec
	if blind {
		adv = blindAdv
	}
	cfg := Config{MaxRounds: 3}
	var m Metrics
	if typed {
		r := NewTypedRunner(cfg, founders, []ids.ID{20, 50}, adv, asmCodec)
		r.ScheduleJoin(2, procs[35])
		r.ScheduleFaultyJoin(2, 55)
		m = r.Run(nil)
	} else {
		boxed := make([]Process, len(founders))
		for i, p := range founders {
			boxed[i] = p
		}
		r := NewRunner(cfg, boxed, []ids.ID{20, 50}, adv)
		r.ScheduleJoin(2, procs[35])
		r.ScheduleFaultyJoin(2, 55)
		m = r.Run(nil)
	}
	if blindAdv.handed > 0 {
		t.Fatalf("a blind adversary was handed %d inboxes", blindAdv.handed)
	}
	got := rec.inboxes
	for id, p := range procs {
		got[id] = p.inboxes
	}
	return got, m
}

// FuzzInboxAssembly decodes bytes into two rounds of sends and holds
// every inbox assembled from the broadcast log and the exception lanes
// — entry for entry, in order — and the delivered, dropped and
// per-round counts to the per-recipient plane of asmModel, on both
// instantiations. Under a blind adversary the
// faulty nodes keep no inbox at all, and the counts and the correct
// nodes' inboxes must still be the model's.
func FuzzInboxAssembly(f *testing.F) {
	// Broadcasts only: every inbox is the shared sorted log.
	f.Add(slices.Concat(asmChunk(1, 0, 0, 0, 4), asmChunk(1, 1, 0, 0, 5), asmChunk(1, 3, 5, 0, 7), asmChunk(2, 2, 0, 0, 9)))
	// Unicasts only, to present, leaving, joining and absent targets:
	// lanes sorted in place.
	f.Add(slices.Concat(asmChunk(1, 0, 1, 2, 3), asmChunk(1, 2, 6, 0, 8), asmChunk(1, 4, 1, 3, 3), asmChunk(2, 1, 1, 4, 6), asmChunk(2, 6, 1, 8, 1)))
	// Mixed runs: a logged burst beside unicasts of the same sender,
	// unicast-then-broadcast, broadcast-then-unicast, repeats and ties,
	// with faulty senders and recipients.
	f.Add(slices.Concat(asmChunk(1, 0, 5, 0, 2), asmChunk(1, 0, 1, 2, 10), asmChunk(1, 0, 7, 5, 13),
		asmChunk(1, 1, 2, 0, 4), asmChunk(1, 1, 6, 5, 1), asmChunk(1, 2, 3, 1, 7), asmChunk(1, 4, 4, 2, 7),
		asmChunk(2, 0, 6, 0, 11), asmChunk(2, 0, 0, 0, 12), asmChunk(2, 3, 7, 6, 3), asmChunk(2, 5, 2, 3, 9)))
	// The joiners' first inbox follows a full log; their second holds
	// what round 2 sent them.
	f.Add(slices.Concat(asmChunk(1, 5, 0, 0, 1), asmChunk(1, 4, 0, 0, 2), asmChunk(2, 3, 1, 6, 5), asmChunk(2, 0, 3, 3, 8)))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := decodeAssembly(data)
		want, wantM := asmModel(sc)
		for _, col := range []struct{ typed, blind bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
			got, m := runAssembly(t, sc, col.typed, col.blind)
			tag := fmt.Sprintf("typed=%v blind=%v", col.typed, col.blind)
			if m.MessagesDelivered != wantM.MessagesDelivered || m.MessagesDropped != wantM.MessagesDropped || !slices.Equal(m.ByRound, wantM.ByRound) {
				t.Fatalf("%s: delivered/dropped/byround = %d/%d/%v, model %d/%d/%v", tag,
					m.MessagesDelivered, m.MessagesDropped, m.ByRound, wantM.MessagesDelivered, wantM.MessagesDropped, wantM.ByRound)
			}
			for id, rounds := range want {
				if col.blind && asmFaulty(id) {
					continue
				}
				for round, in := range rounds {
					if !slices.Equal(got[id][round], in) {
						t.Fatalf("%s: node %d (faulty=%v) round %d inbox\n got  %v\n want %v", tag, id, asmFaulty(id), round, got[id][round], in)
					}
				}
			}
		}
	})
}
