// The delivery plane under the runner core (generic.go): the round's
// broadcast log, the lane bucket that sorts the rest of the traffic
// into per-recipient exception lanes, the run sort and the merge that
// assemble an inbox from log and lane, and the sender-scoped duplicate
// filter, each generic over the payload type the core is instantiated
// with. Order is the instantiation's comparison: a wire union's
// Compare on the typed plane, rendered sort keys on the boxed one
// (sortkey.go). Nothing here stores a key.
//
// A round's traffic is paid per source, not per recipient. A broadcast
// whose source has reached no slot yet — almost every broadcast — is
// one append to the broadcast log, sorted once at the round flip and
// handed whole, as a shared read-only slice, to every recipient whose
// lane is empty. Lanes keep only what is not the same for everyone:
// unicasts, and the broadcasts of a source that already reached some
// slot. They are appended to one round-wide bucket and sorted into
// lanes by recipient once, when the round ends. A recipient with a
// non-empty lane gets its sorted lane and the log merged into runner
// scratch, by sender and then by payload. Payloads never tie within a
// sender's run (sortkey.go), so the merge is exactly the order sorting
// the recipient's whole inbox gives.
package sim

import (
	"math"
	"slices"

	"idonly/internal/ids"
	"idonly/internal/quorum"
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

// bucket is one round's lane traffic: every delivery that is not a log
// append, in delivery order, tagged with its recipient slot. When the
// round ends, one stable counting sort scatters it into an array that
// holds each slot's entries together, in arrival order — exactly what
// appending to a buffer of the slot's own would hold — and every slot
// gets its run as its lane, a capacity-limited view. A delivery costs
// one sequential append, not a write into one of n buffers.
type bucket[M any] struct {
	ents []bucketEnt[M] // this round's deliveries, in delivery order
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

// bcastLog is one round's broadcast log: the fresh broadcasts — those
// whose source had reached no slot yet — each delivered to every slot
// of the round by one append. It is double-buffered: next fills during
// the round, in send order; at the flip it is sorted in place and
// becomes sorted, the inbox every recipient with an empty lane shares.
type bcastLog[M any] struct {
	next, sorted laneBuf[M]
}

// newLog returns an empty log with room for c entries per generation.
func newLog[M any](c int) bcastLog[M] {
	return bcastLog[M]{laneBuf[M]{msgs: make([]MsgT[M], 0, c)}, laneBuf[M]{msgs: make([]MsgT[M], 0, c)}}
}

// flip turns the round's appends into the next round's inbox, sorted,
// and empties next.
func (l *bcastLog[M]) flip(cmp func(a, b M) int) {
	l.sorted, l.next = l.next, l.sorted
	l.next.msgs = l.next.msgs[:0]
	l.sorted.sort(cmp)
}

// assemble returns a recipient's inbox for the round: its lane when
// the log has nothing for it (a joiner's first round, or a
// unicast-only round), the shared sorted log when its lane is empty,
// and otherwise the lane and the log merged into scratch. The lane is
// sorted in place first unless sorted says every lane already is —
// no sender reached one slot's lane with two payloads. The result is
// valid until the scratch or the lane is reused.
func assemble[M any](lane *laneBuf[M], log *bcastLog[M], scratch *laneBuf[M], sorted bool, cmp func(a, b M) int) []MsgT[M] {
	if !sorted {
		lane.sort(cmp)
	}
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
// then by payload. A source is in the log or in lanes, never both, so
// the two never hold the same (sender, payload).
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
// sender's run: a run that needs more than this many shifts per entry
// gets the wider-gap passes of a Shell sort first, having cost about one
// extra pass. Runs of up to 5 entries never exceed it; longer ones stay
// under it when they arrive nearly sorted, which is how a protocol that
// emits per session or per instance in a fixed order leaves them. An
// adversary's scrambled flood does not, and gives up early.
const insertionShiftsPerEntry = 2

// sort orders the inbox by (sender id, payload). Protocol logic must
// not depend on inbox order; the sort exists so traces and any
// order-dependent tie-breaks are reproducible run to run. Payloads
// never tie within a run, so the order does not depend on the
// algorithm.
//
// Only each sender's run is sorted, by payload alone: StepRound
// delivers the sends of one slot after another over the id-sorted node
// table, so every lane and the log are filled in non-decreasing sender
// order. That holds under churn too (joins enter the sorted table
// before the round's first delivery, leavers go after its last). A
// sender id that decreases is therefore a runner bug, and panics.
func (b *laneBuf[M]) sort(cmp func(a, b M) int) {
	for lo := 0; lo < len(b.msgs); {
		hi := runEnd(b.msgs, lo)
		if hi-lo > 1 {
			sortRun(b.msgs[lo:hi], cmp)
		}
		lo = hi
	}
}

// runEnd returns the end of the sender run that starts at lo, panicking
// if the next run's sender id is smaller.
func runEnd[M any](msgs []MsgT[M], lo int) int {
	from := msgs[lo].From
	hi := lo + 1
	for hi < len(msgs) && msgs[hi].From == from {
		hi++
	}
	if hi < len(msgs) && msgs[hi].From < from {
		panic("sim: inbox is not in sender order")
	}
	return hi
}

// sortRun orders one sender's run by payload: straight insertion
// within the shift budget, the wider Shell passes first beyond it.
func sortRun[M any](msgs []MsgT[M], cmp func(a, b M) int) {
	if gapSort(msgs, cmp, 1, insertionShiftsPerEntry*len(msgs)) {
		return
	}
	gap := 1
	for gap < len(msgs)/3 {
		gap = 3*gap + 1
	}
	for ; gap >= 1; gap /= 3 {
		gapSort(msgs, cmp, gap, math.MaxInt)
	}
}

// gapSort is one Shell-sort pass over a run — insertion sort of every
// gap-th entry, straight insertion at gap 1. It gives up, leaving a
// permutation of the run, and reports false once it has shifted more
// than budget entries.
func gapSort[M any](msgs []MsgT[M], cmp func(a, b M) int, gap, budget int) bool {
	for i := gap; i < len(msgs); i++ {
		m := msgs[i]
		j := i
		for ; j >= gap && cmp(m.Payload, msgs[j-gap].Payload) < 0; j -= gap {
			msgs[j] = msgs[j-gap]
			budget--
		}
		msgs[j] = m
		if budget < 0 {
			return false
		}
	}
	return true
}

// smallSetMax is the recipient count at which a recipSet trades its
// linear vec for a bitset over slots. Sparse-overlay fan-outs (a ring
// node talks to ⌈log₂ n⌉ successors) stay in the vec, where a scan of a
// few int32s beats any hashing; broadcast fan-outs upgrade on entry.
const smallSetMax = 32

// recipSet records the slots that already received one source's message
// this round. A logged source went to every slot through the broadcast
// log, so every slot is a member. Otherwise membership lives in the
// unsorted tos vec until it would exceed smallSetMax, then in bits, a
// quorum.Set over slot numbers — its first 64 slots inline, the rest in
// overflow words. Sets are pooled and keep their memory: tos chunks
// come from a shared slab, and an upgraded set keeps its overflow
// words.
type recipSet struct {
	tos      []int32    // linear membership while !upgraded
	bits     quorum.Set // membership once upgraded
	upgraded bool
	logged   bool // in this round's broadcast log: every slot holds it
}

// empty reports whether the source has reached no slot yet.
func (s *recipSet) empty() bool { return !s.logged && !s.upgraded && len(s.tos) == 0 }

// upgrade moves a recipient set from its vec to its bitset. A broadcast
// that fans out lane by lane upgrades first instead of scanning and
// growing the vec recipient by recipient.
func (s *recipSet) upgrade() {
	if s.upgraded {
		return
	}
	s.upgraded = true
	for _, t := range s.tos {
		s.bits.Add(t)
	}
	s.tos = s.tos[:0]
}

// add puts slot i into s and reports whether it was already there —
// i.e. whether this delivery is a within-round duplicate.
func (s *recipSet) add(i int) (dup bool) {
	if !s.upgraded {
		if slices.Contains(s.tos, int32(i)) {
			return true
		}
		if len(s.tos) < smallSetMax {
			s.tos = append(s.tos, int32(i))
			return false
		}
		s.upgrade()
	}
	return !s.bits.Add(int32(i))
}

// scanMax is how many distinct payloads of one sender the filter scans
// linearly; a sender with more (a replay flood) is indexed by a map.
const scanMax = 8

// source is one distinct payload of the current sender and the slots
// it reached.
type source[M comparable] struct {
	payload M
	laned   bool // some slot took it through its lane
	recipSet
}

// srcFilter is the within-round duplicate filter. The model discards
// duplicates "from the same node within one round", and a sender's
// round is one Step, whose sends are delivered one after another, so
// the filter holds one sender at a time: it keys on the payload alone
// and is emptied (reset) before each slot's sends. Which recipients
// already hold a payload is one flag or one bit per slot in its
// recipSet: a fresh broadcast to n nodes costs one lookup and marks the
// set logged, and "slot i is in the set of payload p" is exactly the
// model's predicate "(to_i, sender, p) was delivered this round".
//
// A sender sends a few distinct payloads, so the lookup is a scan of a
// few entries, starting at the last hit (a sparse sender unicasts one
// payload to every successor); past scanMax entries a map takes over.
// The entries and their vec chunks are pooled for the run.
type srcFilter[M comparable] struct {
	srcs    []source[M] // the sender's distinct payloads, in first-sight order
	index   map[M]int32 // srcs by payload, once there are more than scanMax
	last    int         // the last hit
	laned   int         // srcs with a lane delivery
	tosSlab []int32     // backing store handed to fresh sets in smallSetMax chunks
}

// reset empties the filter for the next sender. Vecs keep their
// capacity, and an upgraded set's bitset is reset, keeping its
// overflow words.
func (f *srcFilter[M]) reset() {
	var zero M
	for i := range f.srcs {
		s := &f.srcs[i]
		if s.upgraded {
			s.bits.Reset()
		}
		s.tos = s.tos[:0]
		s.payload, s.upgraded, s.logged, s.laned = zero, false, false, false
	}
	f.srcs = f.srcs[:0]
	if len(f.index) > 0 {
		clear(f.index)
	}
	f.last, f.laned = 0, 0
}

// resolve returns the current sender's entry for payload m, creating
// it on first sight.
func (f *srcFilter[M]) resolve(m M) *source[M] {
	if f.last < len(f.srcs) && f.srcs[f.last].payload == m {
		return &f.srcs[f.last]
	}
	if len(f.srcs) > scanMax {
		if k, ok := f.index[m]; ok {
			f.last = int(k)
			return &f.srcs[k]
		}
	} else {
		for k := range f.srcs {
			if f.srcs[k].payload == m {
				f.last = k
				return &f.srcs[k]
			}
		}
	}
	k := len(f.srcs)
	if k < cap(f.srcs) {
		f.srcs = f.srcs[:k+1] // usually a pooled entry with its vec chunk
	} else {
		f.srcs = append(f.srcs, source[M]{})
	}
	s := &f.srcs[k]
	// A pooled entry keeps its chunk (reset leaves tos non-nil at len
	// 0); a genuinely fresh one — first use, or a zero entry off an
	// append-growth tail — gets its vec carved from the shared slab, so
	// a storm of distinct payloads costs one allocation per 64 sets, not
	// one per set.
	if s.tos == nil {
		if cap(f.tosSlab)-len(f.tosSlab) < smallSetMax {
			f.tosSlab = make([]int32, 0, 64*smallSetMax)
		}
		o := len(f.tosSlab)
		f.tosSlab = f.tosSlab[:o+smallSetMax]
		s.tos = f.tosSlab[o : o : o+smallSetMax]
	}
	s.payload = m
	switch {
	case k == scanMax:
		if f.index == nil {
			f.index = make(map[M]int32)
		}
		for i := range f.srcs {
			f.index[f.srcs[i].payload] = int32(i)
		}
	case k > scanMax:
		f.index[m] = int32(k)
	}
	f.last = k
	return s
}
