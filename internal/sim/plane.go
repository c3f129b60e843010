// The delivery plane under the runner core (generic.go): the round's
// broadcast log, the lane bucket that sorts the rest of the traffic
// into per-recipient exception lanes, the close that sorts one
// sender's sends and drops its duplicates, and the merge that
// assembles an inbox from log and lane, each generic over the payload
// type the core is instantiated with. Order is the instantiation's
// comparison: a wire union's Compare on the typed plane, rendered sort
// keys on the boxed one (sortkey.go). Nothing here stores a key.
//
// A round's traffic is routed by destination alone. A broadcast is one
// append to the broadcast log, handed whole, as a shared read-only
// slice, to every recipient whose lane is empty; a unicast is one
// append to the round's bucket, tagged with its recipient slot. When a
// sender's Step has been delivered, its part of the log is sorted by
// payload and its part of the bucket by (recipient, payload), and the
// model's rule — no duplicate from the same node within one round — is
// applied where the sort leaves a duplicate: next to what it repeats,
// or, for a unicast of a payload the sender also broadcast, in the
// sender's part of the log. Senders step in id order, so the log is
// sorted by (sender, payload) when the round ends, and the bucket's
// stable scatter gives every lane that order too. A recipient with a
// non-empty lane gets its lane and the log merged into runner scratch;
// a (sender, payload) is in the log or in the recipient's lane, never
// both, so the merge is exactly the order sorting the recipient's
// whole inbox gives.
package sim

import (
	"slices"

	"idonly/internal/ids"
)

// MsgT is one inbox entry carrying payload type M. Message is MsgT[any].
type MsgT[M any] struct {
	From    ids.ID
	Payload M
}

// laneBuf is a pooled message buffer: one recipient's exception lane,
// one generation of the broadcast log, or merge scratch.
type laneBuf[M any] struct {
	msgs []MsgT[M]
	// noLog marks a joiner's first inbox: the slot was not in the
	// table when the previous round's log was filled.
	noLog bool
}

// push appends one entry and reports whether the buffer had to grow.
func (b *laneBuf[M]) push(from ids.ID, p M) (grew bool) {
	grew = len(b.msgs) == cap(b.msgs)
	b.msgs = append(b.msgs, MsgT[M]{From: from, Payload: p})
	return grew
}

// dedupRun sorts one sender's broadcasts by payload and returns them
// with every entry equal to its predecessor dropped.
func dedupRun[M comparable](run []MsgT[M], cmp func(a, b M) int) []MsgT[M] {
	sortRun(run, cmp)
	return slices.Compact(run)
}

// bucket is one round's lane traffic: every unicast that survived its
// sender's close, tagged with its recipient slot. When the round ends,
// one stable counting sort scatters it into an array that holds each
// slot's entries together, in sender order — exactly what appending to
// a buffer of the slot's own would hold — and every slot gets its run
// as its lane, a capacity-limited view. A delivery costs one
// sequential append, not a write into one of n buffers.
type bucket[M comparable] struct {
	ents []bucketEnt[M] // this round's deliveries, sender after sender
	tmp  []bucketEnt[M] // close scratch: a sender's unicasts, merged
	ends []int32        // scatter scratch: per slot, its lane's end in out
	out  []MsgT[M]      // the scattered lanes, slot after slot
}

// bucketEnt is one delivery waiting for the scatter.
type bucketEnt[M any] struct {
	to  int32
	msg MsgT[M]
}

// push appends one delivery to slot i's lane. A full bucket doubles
// (append grows a large one by a quarter, leaving four times the dead
// copies), which keeps a flood round's garbage, and peak RSS, steady.
func (b *bucket[M]) push(i int, from ids.ID, p M) {
	if len(b.ents) == cap(b.ents) {
		b.ents = slices.Grow(b.ents, len(b.ents))
	}
	b.ents = append(b.ents, bucketEnt[M]{to: int32(i), msg: MsgT[M]{From: from, Payload: p}})
}

// close applies the duplicate rule to the entries from lo on — one
// sender's unicasts — and returns how many it delivered and dropped.
// It orders them by (recipient, payload), then drops each entry equal
// to its predecessor and each whose payload is in logged, the sender's
// broadcasts of the round, sorted. A delivery to a slot marked in blind
// is counted and not kept.
func (b *bucket[M]) close(lo int, logged []MsgT[M], blind []bool, cmp func(a, b M) int) (delivered, dropped int64) {
	src := b.byRecipient(lo, cmp)
	w := lo
	for k, e := range src {
		if k > 0 && e == src[k-1] || len(logged) > 0 && inRun(logged, e.msg.Payload, cmp) {
			dropped++
			continue
		}
		delivered++
		if blind != nil && blind[e.to] {
			continue
		}
		b.ents[w] = e
		w++
	}
	b.ents = b.ents[:w]
	return delivered, dropped
}

// byRecipient returns the entries from lo on ordered by (recipient,
// payload), in place or in tmp: a natural merge sort over the ascending
// runs send order leaves, which is one run for a sender that walks its
// targets in slot order and two for a successor list that wraps or an
// equivocator that addresses the system twice. Payloads are compared
// only between entries bound for one slot.
func (b *bucket[M]) byRecipient(lo int, cmp func(a, b M) int) []bucketEnt[M] {
	src := b.ents[lo:]
	mid := ascendingEnd(src, 0, cmp)
	if mid == len(src) {
		return src
	}
	b.tmp = slices.Grow(b.tmp[:0], len(src))[:len(src)]
	dst := b.tmp
	for i := 0; ; {
		hi := ascendingEnd(src, mid, cmp)
		mergeEnts(dst[i:hi], src[i:mid], src[mid:hi], cmp)
		switch {
		case i == 0 && hi == len(src):
			return dst
		case hi == len(src): // a pass is done: merge what it merged
			src, dst, i = dst, src, 0
		default:
			i = hi
		}
		mid = ascendingEnd(src, i, cmp)
	}
}

// entLess orders bucket entries by recipient slot, then by payload.
func entLess[M any](x, y *bucketEnt[M], cmp func(a, b M) int) bool {
	return x.to < y.to || x.to == y.to && cmp(x.msg.Payload, y.msg.Payload) < 0
}

// ascendingEnd returns the end of the non-decreasing run of ents that
// starts at lo.
func ascendingEnd[M any](ents []bucketEnt[M], lo int, cmp func(a, b M) int) int {
	hi := min(lo+1, len(ents))
	for hi < len(ents) && !entLess(&ents[hi], &ents[hi-1], cmp) {
		hi++
	}
	return hi
}

// mergeEnts fills dst with the sorted runs x and y merged, x first
// among equals.
func mergeEnts[M any](dst, x, y []bucketEnt[M], cmp func(a, b M) int) {
	k := 0
	for len(x) > 0 && len(y) > 0 {
		if entLess(&y[0], &x[0], cmp) {
			dst[k], y = y[0], y[1:]
		} else {
			dst[k], x = x[0], x[1:]
		}
		k++
	}
	copy(dst[k+copy(dst[k:], x):], y)
}

// inRun reports whether the payload-sorted run holds p.
func inRun[M any](run []MsgT[M], p M, cmp func(a, b M) int) bool {
	_, ok := slices.BinarySearchFunc(run, p, func(m MsgT[M], p M) int { return cmp(m.Payload, p) })
	return ok
}

// scatter sorts the round's deliveries into lanes, one per slot, valid
// until the next scatter, and empties the bucket. It reports whether
// the lanes' array had to grow; its capacity follows the traffic alone,
// not the payload type's width, so both instantiations grow alike.
func (b *bucket[M]) scatter(lanes []laneBuf[M]) (grew bool) {
	ends := append(b.ends[:0], make([]int32, len(lanes))...)
	b.ends = ends
	for _, e := range b.ents {
		ends[e.to]++
	}
	var total int32
	for i, c := range ends {
		ends[i] = total
		total += c
	}
	if grew = cap(b.out) < int(total); grew {
		b.out = make([]MsgT[M], max(int(total), 2*cap(b.out)))
	}
	msgs := b.out[:total]
	for _, e := range b.ents {
		msgs[ends[e.to]] = e.msg
		ends[e.to]++
	}
	var lo int32
	for i, hi := range ends {
		lanes[i] = laneBuf[M]{msgs: msgs[lo:hi:hi]}
		lo = hi
	}
	b.ents = b.ents[:0]
	return grew
}

// bcastLog is one round's broadcast log: every broadcast that survived
// its sender's close, each delivered to every slot of the round by one
// append. It is double-buffered: next fills during the round, sender
// after sender, each sender's entries sorted by payload at its close;
// at the flip it becomes sorted, the inbox every recipient with an
// empty lane shares.
type bcastLog[M any] struct {
	next, sorted laneBuf[M]
}

// newLog returns an empty log with room for c entries per generation.
func newLog[M any](c int) bcastLog[M] {
	return bcastLog[M]{laneBuf[M]{msgs: make([]MsgT[M], 0, c)}, laneBuf[M]{msgs: make([]MsgT[M], 0, c)}}
}

// flip turns the round's appends into the next round's inbox and
// empties next.
func (l *bcastLog[M]) flip() {
	l.sorted, l.next = l.next, l.sorted
	l.next.msgs = l.next.msgs[:0]
}

// assemble returns a recipient's inbox for the round: its lane when
// the log has nothing for it (a joiner's first round, or a
// unicast-only round), the shared sorted log when its lane is empty,
// and otherwise the lane and the log merged into scratch. The result
// is valid until the scratch or the lane is reused.
func assemble[M any](lane *laneBuf[M], log *bcastLog[M], scratch *laneBuf[M], cmp func(a, b M) int) []MsgT[M] {
	switch {
	case lane.noLog || len(log.sorted.msgs) == 0:
		return lane.msgs
	case len(lane.msgs) == 0:
		return log.sorted.msgs
	}
	scratch.merge(lane, &log.sorted, cmp)
	return scratch.msgs
}

// merge fills b with two sorted inboxes, x and y, merged by sender and
// then by payload. A (sender, payload) is in the log or in a
// recipient's lane, never both, so the two never tie.
func (b *laneBuf[M]) merge(x, y *laneBuf[M], cmp func(a, b M) int) {
	out := slices.Grow(b.msgs[:0], len(x.msgs)+len(y.msgs))
	i, j := 0, 0
	for i < len(x.msgs) && j < len(y.msgs) {
		if xm, ym := &x.msgs[i], &y.msgs[j]; xm.From < ym.From || xm.From == ym.From && cmp(xm.Payload, ym.Payload) < 0 {
			out = append(out, *xm)
			i++
		} else {
			out = append(out, *ym)
			j++
		}
	}
	b.msgs = append(append(out, x.msgs[i:]...), y.msgs[j:]...)
}

// insertionShiftsPerEntry bounds the straight insertion sort of one
// sender's broadcasts: a run that needs more than this many shifts per
// entry is handed to slices.SortFunc, having cost about one extra pass.
// Runs of up to 5 entries never exceed it; longer ones stay under it
// when they arrive nearly sorted, which is how a protocol that emits
// per session or per instance in a fixed order leaves them. An
// adversary's scrambled flood does not, and gives up early.
const insertionShiftsPerEntry = 2

// sortRun orders one sender's broadcasts by payload. Protocol logic
// must not depend on inbox order; the sort exists so traces and any
// order-dependent tie-breaks are reproducible run to run. Equal
// payloads end up next to each other, which is where dedupRun drops
// them.
func sortRun[M any](msgs []MsgT[M], cmp func(a, b M) int) {
	budget := insertionShiftsPerEntry * len(msgs)
	for i := 1; i < len(msgs); i++ {
		m := msgs[i]
		j := i
		for ; j > 0 && cmp(m.Payload, msgs[j-1].Payload) < 0; j-- {
			msgs[j] = msgs[j-1]
			budget--
		}
		msgs[j] = m
		if budget < 0 {
			slices.SortFunc(msgs, func(a, b MsgT[M]) int { return cmp(a.Payload, b.Payload) })
			return
		}
	}
}
