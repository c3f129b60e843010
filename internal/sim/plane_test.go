package sim

// Differential tests of the mechanisms under the runner core
// (plane.go): the close of a sender's sends — by Compare and by
// rendered keys — against sort.Sort over the whole inbox, and the blind
// slots that keep no lane. The duplicate rule and inbox assembly are
// held to the §IV model on every strategy by the external tests
// (schedules_test.go), which play the payloads and the wire union
// declared here.

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

// asmWire is the wire union over the test payloads: K
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

// sendsProc sends the same sends every round.
type sendsProc struct {
	id    ids.ID
	sends []Send
}

func (p sendsProc) ID() ids.ID                 { return p.id }
func (sendsProc) Decided() bool                { return false }
func (sendsProc) Output() any                  { return nil }
func (p sendsProc) Step(int, []Message) []Send { return p.sends }

type blindAdv struct{ silentAdv }

func (blindAdv) Blind() {}

// TestBlindSlotsKeepNoLane: a delivery to a blind adversary's slot is
// counted and never stored, so the slot's lane stays empty however much
// is addressed to it, while a reading adversary's slot keeps its lane.
func TestBlindSlotsKeepNoLane(t *testing.T) {
	for _, blind := range []bool{false, true} {
		p := sendsProc{10, []Send{Unicast(20, regPayload{2}), Unicast(20, regPayload{1}), Unicast(10, regPayload{1})}}
		var adv Adversary = silentAdv{}
		if blind {
			adv = blindAdv{}
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

// The test payloads and their wire union, exported to the external
// tests.
type (
	RegPayload   = regPayload
	TwinPayload  = twinPayload
	ThirdPayload = thirdPayload
	AsmWire      = asmWire
)

var (
	AsmCodec   = asmCodec
	AsmPayload = asmPayload
)
