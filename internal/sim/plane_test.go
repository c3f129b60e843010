package sim

// Differential tests of the mechanisms under the runner core
// (plane.go), each against a model that lives only here: duplicate
// dropping against a map keyed by (to, from, payload), the close of a
// sender's sends — by Compare and by rendered keys — against sort.Sort
// over the whole inbox, and inbox assembly from the broadcast log and
// the exception lanes against per-recipient inboxes sorted whole by
// (sender, key bytes).

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"
	"testing"

	"idonly/internal/ids"
)

// regPayload, twinPayload and thirdPayload are payloads of one shape
// under three types, so one value under two of them is two messages
// whose keys differ in the tag alone.
type (
	regPayload   struct{ V int }
	twinPayload  struct{ V int }
	thirdPayload struct{ V int }
)

func (p regPayload) AppendSortKey(dst []byte) []byte { return AppendInt(append(dst, 0xf0), int64(p.V)) }
func (p twinPayload) AppendSortKey(dst []byte) []byte {
	return AppendInt(append(dst, 0xf1), int64(p.V))
}
func (p thirdPayload) AppendSortKey(dst []byte) []byte {
	return AppendInt(append(dst, 0xf2), int64(p.V))
}

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

// TestFilterMatchesNaiveModel runs seeded schedules through the boxed
// Runner (the pool mixes payload types no wire union holds) and
// through the model the paper states — a message
// is dropped exactly when the same (to, from, payload) was already
// delivered this round — and compares the counters and every inbox.
// The sizes run from 5 to 128 founders plus a joiner, so the slot
// numbers delivery tags its unicasts with shift mid-run. Fixed rows pin
// the rule's sender scope: a sender's repeat is dropped however its
// sends interleave, and equal payloads of two senders are two messages.
func TestFilterMatchesNaiveModel(t *testing.T) {
	const rounds = 8
	for _, n := range []int{5, 40, 64, 128} {
		for seed := uint64(1); seed <= 4; seed++ {
			rng := ids.NewRand(seed*1000 + uint64(n))
			universe := ids.SortIDs(ids.Sparse(rng, n+3))
			founders, joiner, absent := universe[:n], universe[n], universe[n+1:]
			leaver := founders[rng.Intn(n)]

			pool := []any{
				regPayload{1}, regPayload{2}, regPayload{3},
				twinPayload{1}, twinPayload{2},
				thirdPayload{1}, thirdPayload{2},
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
						switch rng.Intn(7) {
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
						case 6: // unicast, broadcast, the unicast again
							to := target()
							s[r] = append(s[r], Unicast(to, p), BroadcastPayload(p), Unicast(to, p))
						}
					}
				}
				return s
			}
			scripts := make(map[ids.ID]map[int][]Send)
			for _, id := range universe[:n+1] {
				scripts[id] = script()
			}
			tag := fmt.Sprintf("n=%d seed=%d", n, seed)
			if _, dropped := checkFilterModel(t, tag, universe[:n+1], joiner, leaver, rounds, scripts); dropped == 0 {
				t.Fatalf("%s: schedule produced no duplicates", tag)
			}
		}
	}

	a, b, c, d := ids.ID(10), ids.ID(20), ids.ID(30), ids.ID(40)
	p := regPayload{7}
	for _, row := range []struct {
		name               string
		scripts            map[ids.ID]map[int][]Send
		delivered, dropped int64
	}{
		{"unicast, broadcast, unicast again", map[ids.ID]map[int][]Send{
			a: {1: {Unicast(b, p), BroadcastPayload(p), Unicast(b, p)}},
		}, 4, 2},
		{"two senders, equal payloads", map[ids.ID]map[int][]Send{
			a: {1: {BroadcastPayload(p), Unicast(c, twinPayload{1}), Unicast(c, twinPayload{1})}},
			b: {1: {BroadcastPayload(p), Unicast(c, twinPayload{1})}},
		}, 10, 1},
	} {
		delivered, dropped := checkFilterModel(t, row.name, []ids.ID{a, b, c, d}, 0, 0, 2, row.scripts)
		if delivered != row.delivered || dropped != row.dropped {
			t.Fatalf("%s: delivered/dropped = %d/%d, want %d/%d", row.name, delivered, dropped, row.delivered, row.dropped)
		}
	}
}

// checkFilterModel plays scripts (id -> round -> sends) over members on
// the boxed Runner — joiner, if not 0, joins at round 3 and leaver, if
// not 0, leaves after round 5 — and holds the counters and every inbox
// to the model. It returns the model's delivered and dropped counts.
func checkFilterModel(t *testing.T, tag string, members []ids.ID, joiner, leaver ids.ID, rounds int, scripts map[ids.ID]map[int][]Send) (delivered, dropped int64) {
	t.Helper()
	const joinRound, leaveRound = 3, 5
	procs := make(map[ids.ID]*scriptProc)
	var founding []*scriptProc
	for _, id := range members {
		p := &scriptProc{id: id, script: scripts[id], inboxes: make(map[int][]Message)}
		if id == leaver {
			p.leaveAt = leaveRound
		}
		procs[id] = p
		if id != joiner {
			founding = append(founding, p)
		}
	}
	r := NewRunner(Config{MaxRounds: rounds}, founding, nil, nil)
	if joiner != 0 {
		r.ScheduleJoin(joinRound, procs[joiner])
	}
	got := r.Run(nil)

	// The model: same schedule, one map entry per delivery.
	var byRound []int64
	want := make(map[ids.ID]map[int][]Message) // id -> round consumed -> inbox
	for r := 1; r <= rounds; r++ {
		var active []ids.ID
		for _, id := range members {
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

	if got.MessagesDelivered != delivered || got.MessagesDropped != dropped {
		t.Fatalf("%s: delivered/dropped = %d/%d, model %d/%d", tag, got.MessagesDelivered, got.MessagesDropped, delivered, dropped)
	}
	if fmt.Sprint(got.ByRound) != fmt.Sprint(byRound) {
		t.Fatalf("%s: ByRound = %v, model %v", tag, got.ByRound, byRound)
	}
	for id, p := range procs {
		for round, inbox := range p.inboxes {
			if !sameMultiset(inbox, want[id][round]) {
				t.Fatalf("%s: node %d round %d inbox\n got  %v\n want %v", tag, id, round, inbox, want[id][round])
			}
		}
	}
	return delivered, dropped
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
type wholeInboxSort []Message

func (b wholeInboxSort) Len() int { return len(b) }
func (b wholeInboxSort) Less(i, j int) bool {
	if b[i].From != b[j].From {
		return b[i].From < b[j].From
	}
	return bytes.Compare(AppendKey(nil, b[i].Payload), AppendKey(nil, b[j].Payload)) < 0
}
func (b wholeInboxSort) Swap(i, j int) { b[i], b[j] = b[j], b[i] }

// genInbox builds a sender-ordered inbox as delivery leaves it: a run
// per sender, payloads in scrambled order. Run lengths straddle the
// insertion budget (short runs, long nearly-sorted runs, long reversed
// runs that fall back to slices.SortFunc), and some runs repeat payloads.
// With twins, every value also occurs under a second type.
func genInbox(rng *ids.Rand, twins bool) (msgs []Message) {
	for _, from := range ids.SortIDs(ids.Sparse(rng, 1+rng.Intn(12))) {
		var vals []int
		switch rng.Intn(5) {
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
		case 4: // scrambled, with repeats
			for i := rng.Intn(60); i >= 0; i-- {
				vals = append(vals, rng.Intn(12))
			}
		}
		for _, v := range vals {
			msgs = append(msgs, Message{From: from, Payload: regPayload{v - 50}})
			if twins {
				msgs = append(msgs, Message{From: from, Payload: twinPayload{v - 50}})
			}
		}
	}
	return msgs
}

// TestRunSortMatchesWholeInboxSort: the close of each sender's sends is
// the only sort the plane does. Played as every sender's broadcasts, it
// must leave the log as the whole-inbox sort with repeats removed; played
// as unicasts spread over three recipients, it must leave each lane as
// that recipient's share of it. Both planes are held to it — boxed,
// rendering keys per comparison, and typed over asmWire by Compare —
// with and without a second payload type in the runs.
func TestRunSortMatchesWholeInboxSort(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		for _, twins := range []bool{false, true} {
			msgs := genInbox(ids.NewRand(seed), twins)
			model := slices.Clone(msgs)
			sort.Sort(wholeInboxSort(model))
			model = slices.Compact(model)
			var typed []MsgT[asmWire]
			for _, m := range msgs {
				w, _ := asmCodec.Wrap(m.Payload)
				typed = append(typed, MsgT[asmWire]{From: m.From, Payload: w})
			}
			tag := fmt.Sprintf("seed %d twins=%v", seed, twins)
			checkClose(t, tag+" boxed", msgs, new(keyOrder).compare, model, func(m Message) Message { return m })
			checkClose(t, tag+" typed", typed, asmWire.Compare, model, func(m MsgT[asmWire]) Message {
				return Message{From: m.From, Payload: asmCodec.Unwrap(m.Payload)}
			})
		}
	}
}

// checkClose plays msgs sender run by sender run through the close, as
// broadcasts and as unicasts to slot v mod 3 of each payload's value,
// and holds the log and the scattered lanes to model.
func checkClose[M comparable](t *testing.T, tag string, msgs []MsgT[M], cmp func(a, b M) int, model []Message, box func(MsgT[M]) Message) {
	t.Helper()
	to := func(m Message) int32 {
		w, _ := asmCodec.Wrap(m.Payload)
		return int32(w.V+60) % 3
	}
	var log laneBuf[M]
	var b bucket[M]
	for lo := 0; lo < len(msgs); {
		hi := lo + 1
		for hi < len(msgs) && msgs[hi].From == msgs[lo].From {
			hi++
		}
		start := len(log.msgs)
		log.msgs = append(log.msgs, msgs[lo:hi]...)
		log.msgs = append(log.msgs[:start], dedupRun(log.msgs[start:], cmp)...)
		ulo := len(b.ents)
		for _, m := range msgs[lo:hi] {
			b.push(int(to(box(m))), m.From, m.Payload)
		}
		b.close(ulo, nil, nil, cmp)
		lo = hi
	}
	lanes := make([]laneBuf[M], 3)
	b.scatter(lanes)
	if len(log.msgs) != len(model) {
		t.Fatalf("%s: log has %d entries, whole-inbox sort %d", tag, len(log.msgs), len(model))
	}
	next := make([]int, 3)
	for i, want := range model {
		if got := box(log.msgs[i]); got != want {
			t.Fatalf("%s: log entry %d is %v, whole-inbox sort has %v", tag, i, got, want)
		}
		k := to(want)
		if lane := lanes[k].msgs; next[k] >= len(lane) || box(lane[next[k]]) != want {
			t.Fatalf("%s: lane %d entry %d is not %v", tag, k, next[k], want)
		}
		next[k]++
	}
	for k, lane := range lanes {
		if len(lane.msgs) != next[k] {
			t.Fatalf("%s: lane %d has %d entries, want %d", tag, k, len(lane.msgs), next[k])
		}
	}
}

// asmWire is FuzzInboxAssembly's wire union over the payload pool: K
// picks regPayload, twinPayload or thirdPayload, so one value under two
// kinds is two messages.
type asmWire struct {
	K uint8
	V int
}

// Compare orders as the keys do: K%3 picks the tag (0xf0–0xf2), then
// the value.
func (w asmWire) Compare(o asmWire) int {
	return cmp.Or(cmp.Compare(w.K%3, o.K%3), cmp.Compare(w.V, o.V))
}

var asmCodec = Codec[asmWire]{
	Wrap: func(p any) (asmWire, bool) {
		switch v := p.(type) {
		case regPayload:
			return asmWire{0, v.V}, true
		case twinPayload:
			return asmWire{1, v.V}, true
		case thirdPayload:
			return asmWire{2, v.V}, true
		}
		return asmWire{}, false
	},
	Unwrap: func(w asmWire) any { return asmPayload(int(w.K), w.V) },
}

func asmPayload(kind, v int) any {
	switch kind % 3 {
	case 1:
		return twinPayload{v}
	case 2:
		return thirdPayload{v}
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
// sorted by the fallback sort) as broadcasts or as unicasts, 7 a
// unicast and then a broadcast of the same value under another type.
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

// asmModel is the model of the delivery plane: every delivery is
// appended to its recipient's own inbox unless (to, from, payload) was
// already delivered this round, and each inbox is sorted whole by
// (sender, key bytes). It returns id -> round -> inbox, and the
// counters.
func asmModel(sc asmScript) (map[ids.ID]map[int][]Message, Metrics) {
	inboxes := make(map[ids.ID]map[int][]Message)
	var m Metrics
	for round := 1; round <= 2; round++ {
		present := asmPresent(round)
		next := make(map[ids.ID][]Message)
		seen := make(map[naiveDelivery]bool)
		m.ByRound = append(m.ByRound, 0)
		for _, from := range present {
			for _, s := range sc[round][from] {
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
					next[to] = append(next[to], Message{From: from, Payload: s.Payload})
					m.MessagesDelivered++
					m.ByRound[round-1]++
				}
			}
		}
		for _, to := range asmPresent(round + 1) {
			in := append([]Message{}, next[to]...)
			slices.SortFunc(in, func(a, b Message) int {
				if c := cmp.Compare(a.From, b.From); c != 0 {
					return c
				}
				return bytes.Compare(AppendKey(nil, a.Payload), AppendKey(nil, b.Payload))
			})
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
		r := NewRunner(cfg, founders, []ids.ID{20, 50}, adv)
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

// TestBlindSlotsKeepNoLane: a delivery to a blind adversary's slot is
// counted and never stored, so the slot's lane stays empty however much
// is addressed to it, while a reading adversary's slot keeps its lane.
func TestBlindSlotsKeepNoLane(t *testing.T) {
	for _, blind := range []bool{false, true} {
		p := &scriptProc{id: 10, inboxes: make(map[int][]Message), script: map[int][]Send{
			1: {Unicast(20, regPayload{2}), Unicast(20, regPayload{1}), Unicast(10, regPayload{1})},
		}}
		var adv Adversary = &asmAdv{inboxes: make(map[ids.ID]map[int][]Message)}
		if blind {
			adv = &asmBlindAdv{}
		}
		r := NewRunner(Config{MaxRounds: 1}, []Process{p}, []ids.ID{20}, adv)
		if m := r.Run(nil); m.MessagesDelivered != 3 || m.MessagesDropped != 0 {
			t.Fatalf("blind=%v: delivered/dropped = %d/%d, want 3/0", blind, m.MessagesDelivered, m.MessagesDropped)
		}
		if got, want := len(r.cur[1].msgs), map[bool]int{false: 2, true: 0}[blind]; got != want {
			t.Fatalf("blind=%v: the faulty slot's lane holds %d entries, want %d", blind, got, want)
		}
	}
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
	// The rule's sender scope: one sender unicasts to 30, broadcasts,
	// then unicasts to 30 again — one payload; and two senders send one
	// payload each as a broadcast and to one target, which are two
	// messages every time.
	f.Add(slices.Concat(asmChunk(1, 0, 1, 2, 5), asmChunk(1, 0, 0, 0, 5), asmChunk(1, 0, 1, 2, 5)))
	// Two payloads of one sender in one lane, descending: the close
	// orders them with no longer run beside them.
	f.Add(slices.Concat(asmChunk(1, 0, 1, 2, 9), asmChunk(1, 0, 1, 2, 6), asmChunk(2, 1, 1, 3, 12), asmChunk(2, 1, 1, 3, 3)))
	f.Add(slices.Concat(asmChunk(1, 0, 0, 0, 4), asmChunk(1, 1, 0, 0, 4), asmChunk(1, 2, 1, 7, 6), asmChunk(1, 3, 1, 7, 6),
		asmChunk(2, 1, 1, 2, 9), asmChunk(2, 2, 1, 2, 9)))
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
