// The delivery plane under the runner core (generic.go): the round's
// broadcast log, the lane bucket that sorts the rest of the traffic
// into per-recipient exception lanes, the run sort and the merge that
// assembles an inbox from log and lane, and the source-keyed duplicate
// filter, each generic over the payload type the core is instantiated
// with.
//
// A round's traffic is paid per source, not per recipient. A broadcast
// whose source has reached no slot yet — almost every broadcast — is
// one append to the broadcast log, sorted once at the round flip and
// handed whole, as a shared read-only slice, to every recipient whose
// lane is empty. Lanes keep only what is not the same for everyone:
// unicasts, and the broadcasts of a source that already reached some
// slot. They are appended to one round-wide bucket and sorted into
// lanes by recipient once, when the round ends. A recipient with a
// non-empty lane gets log and lane merged into runner scratch, each
// sender's run rebuilt in the exact order the per-recipient plane used
// to deliver it, so the inbox is byte-identical to sorting that
// plane's lane.
package sim

import (
	"hash/maphash"
	"math"
	"math/bits"
	"slices"

	"idonly/internal/ids"
	"idonly/internal/quorum"
)

// MsgT is one inbox entry carrying payload type M. Message is MsgT[any].
type MsgT[M any] struct {
	From    ids.ID
	Payload M
}

// keyRef is one entry's sort key: an offset/length view into the
// runner's key arena for the round the message was delivered in. A
// lane entry also records at, the broadcast log's length when it was
// appended — where it sat among the log's entries in send order. It
// rides in the key table, not a table of its own, so a lane append
// writes two arrays, not three.
type keyRef struct {
	off uint32
	n   uint32
	at  uint32
}

// laneBuf is a pooled message buffer and, in tandem, the sort-key views
// computed at delivery time: one recipient's exception lane, one
// generation of the broadcast log, or merge scratch. It keeps the
// single global insertion order (not per-type sublanes): cross-type
// key-byte ties exist, and how a tie is broken depends on that order.
type laneBuf[M any] struct {
	msgs []MsgT[M]
	keys []keyRef
	// noLog marks a joiner's first inbox: the slot was not in the
	// table when the previous round's log was filled.
	noLog bool
}

// inboxBuf is the boxed lane: every slot's on the boxed instantiation,
// the faulty slots' on any (the Adversary interface consumes []Message).
type inboxBuf = laneBuf[any]

// push appends one entry and reports whether the buffer had to grow.
func (b *laneBuf[M]) push(from ids.ID, p M, k keyRef) (grew bool) {
	grew = len(b.msgs) == cap(b.msgs)
	b.msgs = append(b.msgs, MsgT[M]{From: from, Payload: p})
	b.keys = append(b.keys, k)
	return grew
}

// bucket is one round's lane traffic: every delivery that is not a log
// append, in delivery order, tagged with its recipient slot. When the
// round ends, one stable counting sort scatters it into an array that
// holds each slot's entries together, in arrival order — exactly, at
// marks included, what appending to a buffer of the slot's own would
// hold — and every slot gets its run as its lane, a capacity-limited
// view. A delivery costs one sequential append, not a write into one
// of n buffers.
type bucket[M any] struct {
	ents []bucketEnt[M] // this round's deliveries, in delivery order
	ends []int32        // scatter scratch: per slot, its lane's end in out
	out  laneBuf[M]     // the scattered lanes, slot after slot
}

// bucketEnt is one delivery waiting for the scatter.
type bucketEnt[M any] struct {
	to  int32
	key keyRef
	msg MsgT[M]
}

// push appends one delivery to slot i's lane. A full bucket doubles
// (append grows a large one by a quarter, leaving four times the dead
// copies), which keeps a flood round's garbage, and peak RSS, steady.
func (b *bucket[M]) push(i int, from ids.ID, p M, k keyRef) {
	if len(b.ents) == cap(b.ents) {
		b.ents = slices.Grow(b.ents, len(b.ents))
	}
	b.ents = append(b.ents, bucketEnt[M]{to: int32(i), key: k, msg: MsgT[M]{From: from, Payload: p}})
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
	if grew = cap(b.out.msgs) < int(total); grew {
		c := max(int(total), 2*cap(b.out.msgs))
		b.out.msgs, b.out.keys = make([]MsgT[M], c), make([]keyRef, c)
	}
	msgs, keys := b.out.msgs[:total], b.out.keys[:total]
	for _, e := range b.ents {
		at := ends[e.to]
		ends[e.to]++
		msgs[at], keys[at] = e.msg, e.key
	}
	var lo int32
	for i, hi := range ends {
		lanes[i] = laneBuf[M]{msgs: msgs[lo:hi:hi], keys: keys[lo:hi:hi]}
		lo = hi
	}
	b.ents = b.ents[:0]
	return grew
}

// bcastLog is one round's broadcast log: the fresh broadcasts — those
// whose source had reached no slot yet — in send order, each delivered
// to every slot of the round by one append. It is double-buffered like
// the arenas: next fills during the round; at the flip it becomes sent,
// and sorted is its run-sorted copy, the inbox every recipient with an
// empty lane shares. sent keeps the send order, which a recipient whose
// lane holds the same sender rebuilds that sender's run from.
type bcastLog[M any] struct {
	next, sent, sorted laneBuf[M]
}

// newLog returns an empty log with room for c entries per generation.
func newLog[M any](c int) bcastLog[M] {
	lane := func() laneBuf[M] { return laneBuf[M]{msgs: make([]MsgT[M], 0, c), keys: make([]keyRef, 0, c)} }
	return bcastLog[M]{lane(), lane(), lane()}
}

// flip turns the round's appends into the next round's inbox, sorted
// against the arena its keys point into, and empties next.
func (l *bcastLog[M]) flip(arena []byte) {
	l.sent, l.next = l.next, l.sent
	l.next.msgs, l.next.keys = l.next.msgs[:0], l.next.keys[:0]
	l.sorted.msgs = append(l.sorted.msgs[:0], l.sent.msgs...)
	l.sorted.keys = append(l.sorted.keys[:0], l.sent.keys...)
	l.sorted.sort(arena)
}

// assemble returns a recipient's inbox for the round: its lane sorted
// in place when the log has nothing for it (a joiner's first round, or
// a unicast-only round), the shared sorted log when its lane is empty,
// and otherwise the two merged into scratch. The result is valid until
// the scratch or the lane is reused.
func assemble[M any](lane *laneBuf[M], log *bcastLog[M], scratch *laneBuf[M], arena []byte) []MsgT[M] {
	switch {
	case lane.noLog || len(log.sent.msgs) == 0:
		lane.sort(arena)
		return lane.msgs
	case len(lane.msgs) == 0:
		return log.sorted.msgs
	}
	scratch.merge(lane, log, arena)
	return scratch.msgs
}

// merge fills b with the sender-ordered merge of a lane and the log,
// each sender's run exactly as sorting the per-recipient lane of old
// leaves it: a run only the log holds is copied already sorted, a run
// only the lane holds is copied and sorted, and a mixed run is rebuilt
// in send order — a lane entry goes after the log entries before its
// at mark — and then sorted. Rebuilding first is not optional: with
// cross-type key ties and the unstable Shell fallback, merging two
// sorted runs could order them differently.
func (b *laneBuf[M]) merge(lane *laneBuf[M], log *bcastLog[M], arena []byte) {
	sent, sorted := &log.sent, &log.sorted
	need := len(lane.msgs) + len(sent.msgs)
	b.msgs, b.keys = slices.Grow(b.msgs[:0], need), slices.Grow(b.keys[:0], need)
	for g, l := 0, 0; g < len(sent.msgs) || l < len(lane.msgs); {
		inLog, inLane := g < len(sent.msgs), l < len(lane.msgs)
		if !inLane || inLog && sent.msgs[g].From < lane.msgs[l].From {
			ge := runEnd(sent.msgs, g)
			b.msgs = append(b.msgs, sorted.msgs[g:ge]...)
			b.keys = append(b.keys, sorted.keys[g:ge]...)
			g = ge
			continue
		}
		start, le := len(b.msgs), runEnd(lane.msgs, l)
		if inLog && sent.msgs[g].From == lane.msgs[l].From {
			ge := runEnd(sent.msgs, g)
			for ; l < le; l++ {
				at := int(lane.keys[l].at)
				b.msgs = append(append(b.msgs, sent.msgs[g:at]...), lane.msgs[l])
				b.keys = append(append(b.keys, sent.keys[g:at]...), lane.keys[l])
				g = at
			}
			b.msgs = append(b.msgs, sent.msgs[g:ge]...)
			b.keys = append(b.keys, sent.keys[g:ge]...)
			g = ge
		} else {
			b.msgs = append(b.msgs, lane.msgs[l:le]...)
			b.keys = append(b.keys, lane.keys[l:le]...)
			l = le
		}
		sortRun(b.msgs[start:], b.keys[start:], arena)
	}
}

// insertionShiftsPerEntry bounds the straight insertion sort of one
// sender's run: a run that needs more than this many shifts per entry
// gets the wider-gap passes of a Shell sort first, having cost about one
// extra pass. Runs of up to 5 entries never exceed it; longer ones stay
// under it when they arrive nearly sorted, which is how a protocol that
// emits per session or per instance in a fixed order leaves them. An
// adversary's scrambled flood does not, and gives up early.
const insertionShiftsPerEntry = 2

// sort orders the inbox by (sender id, key bytes) against the arena its
// keys point into. Protocol logic must not depend on inbox order; the
// sort exists so traces and any order-dependent tie-breaks are
// reproducible run to run.
//
// Only each sender's run is sorted, by key bytes alone: StepRound
// delivers the sends of one slot after another over the id-sorted node
// table, so every lane and the log are filled in non-decreasing sender
// order. That holds under churn too (joins enter the sorted table
// before the round's first delivery, leavers go after its last). A
// sender id that decreases is therefore a runner bug, and panics.
func (b *laneBuf[M]) sort(arena []byte) {
	for lo := 0; lo < len(b.msgs); {
		hi := runEnd(b.msgs, lo)
		sortRun(b.msgs[lo:hi], b.keys[lo:hi], arena)
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

// sortRun orders one sender's run by key bytes: straight insertion
// within the shift budget, the wider Shell passes first beyond it.
func sortRun[M any](msgs []MsgT[M], keys []keyRef, arena []byte) {
	if gapSort(msgs, keys, arena, 1, insertionShiftsPerEntry*len(msgs)) {
		return
	}
	gap := 1
	for gap < len(msgs)/3 {
		gap = 3*gap + 1
	}
	for ; gap >= 1; gap /= 3 {
		gapSort(msgs, keys, arena, gap, math.MaxInt)
	}
}

// gapSort is one Shell-sort pass over a run — insertion sort of every
// gap-th entry, straight insertion at gap 1 — moving messages and keys
// in tandem. It gives up, leaving a permutation of the run, and reports
// false once it has shifted more than budget entries.
func gapSort[M any](msgs []MsgT[M], keys []keyRef, arena []byte, gap, budget int) bool {
	for i := gap; i < len(msgs); i++ {
		m, k := msgs[i], keys[i]
		kb := arena[k.off : k.off+k.n]
		j := i
		for ; j >= gap; j -= gap {
			p := keys[j-gap]
			if string(kb) >= string(arena[p.off:p.off+p.n]) {
				break
			}
			msgs[j], keys[j] = msgs[j-gap], p
			budget--
		}
		msgs[j], keys[j] = m, k
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
// this round, and where the source's key bytes sit in the arena. A
// logged source went to every slot through the broadcast log, so every
// slot is a member. Otherwise membership lives in the unsorted tos vec
// until it would exceed smallSetMax, then in bits, a quorum.Set over
// slot numbers — its first 64 slots inline, the rest in overflow words.
// Sets are pooled across rounds and keep their memory: tos chunks come
// from a shared slab, and an upgraded set keeps its overflow words.
type recipSet struct {
	tos      []int32    // linear membership while !upgraded
	bits     quorum.Set // membership once upgraded
	upgraded bool
	logged   bool   // in this round's broadcast log: every slot holds it
	keyed    bool   // key is rendered (a key may be empty, so n cannot say)
	key      keyRef // the source's key bytes in the round's arena
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

// filterPresizeMax caps the duplicate-filter presize hint.
const filterPresizeMax = 1 << 20

// srcFilter is the within-round duplicate filter. The model discards
// duplicates "from the same node within one round", so a message's
// duplicate status belongs to its source — K is (sender, payload
// identity) — and the index is probed once per Send. Which recipients
// already hold that source's message is one flag or one bit per slot
// in a recipSet: a fresh broadcast to n nodes costs one hash and one
// probe, and marks the set logged, and "slot i is in the set of (from,
// payload)" is exactly the model's predicate "(to_i, from, payload)
// was delivered this round".
//
// The index is open addressing over the sets, not a Go map: a map
// hashes a fresh source twice (the lookup that misses, then the
// insert), and almost every source is fresh. table holds a set's index
// + 1 (0 is empty) at the first free slot probed linearly from its
// source's hash, keys and hashes hold each set's source and hash by set
// index, and the load stays at most 3/4. The table is never iterated,
// so the per-runner random hash seed cannot reach the schedule.
//
// Slots are stable for the filter's whole lifetime between two flips:
// membership is frozen while a round executes. Everything here is
// scratch that keeps the size the run grew it to: each run builds its
// own runner, so a flood round's index and sets are freed with the run.
type srcFilter[K comparable] struct {
	table  []int32  // open-addressing index: set index + 1, or 0; a power of two long
	keys   []K      // each set's source, by set index
	hashes []uint64 // each set's source hash, by set index
	seed   maphash.Seed

	// sets and tosSlab are round-scoped scratch recycled across rounds;
	// last caches the previous Send's resolution (a sparse sender
	// unicasts the same payload to every successor, so consecutive
	// sends usually hit).
	sets      []recipSet
	tosSlab   []int32 // backing store handed to fresh sets in smallSetMax chunks
	lastKey   K
	lastIdx   int32
	lastValid bool
}

// init seeds the index for the steady-state shape: a couple of
// distinct sends per node per round.
func (f *srcFilter[K]) init(nodes int) {
	f.seed = maphash.MakeSeed()
	f.table = make([]int32, tableLen(min(max(2*nodes, 16), filterPresizeMax)))
}

// tableLen is the index length that holds n sources at a load of at
// most 3/4.
func tableLen(n int) int {
	return 1 << bits.Len(uint(4*n/3))
}

// flip empties the filter in place at the round boundary. Vecs keep
// their capacity, and an upgraded set's bitset is reset, keeping its
// overflow words.
func (f *srcFilter[K]) flip() {
	f.lastValid = false
	if len(f.keys) > 0 {
		clear(f.table)
	}
	clear(f.keys) // drop the payloads' references
	f.keys, f.hashes = f.keys[:0], f.hashes[:0]
	for i := range f.sets {
		s := &f.sets[i]
		if s.upgraded {
			s.bits.Reset()
		}
		s.tos = s.tos[:0]
		s.upgraded, s.logged, s.keyed = false, false, false
	}
	f.sets = f.sets[:0]
}

// resolve returns this round's recipient set for a source, creating it
// on first sight.
func (f *srcFilter[K]) resolve(key K) *recipSet {
	idx := f.lastIdx
	if !f.lastValid || f.lastKey != key {
		h := maphash.Comparable(f.seed, key)
		mask := uint64(len(f.table) - 1)
		i := h & mask
		for e := f.table[i]; e != 0; e = f.table[i] {
			if f.hashes[e-1] == h && f.keys[e-1] == key {
				break
			}
			i = (i + 1) & mask
		}
		if e := f.table[i]; e != 0 {
			idx = e - 1
		} else {
			idx = int32(len(f.sets))
			if n := len(f.sets); n < cap(f.sets) {
				f.sets = f.sets[:n+1] // usually a pooled entry with its vec chunk
			} else {
				f.sets = append(f.sets, recipSet{})
			}
			// A pooled entry keeps its chunk (flip leaves tos non-nil at
			// len 0); a genuinely fresh one — first use, or a zero entry
			// off an append-growth tail — gets its vec carved from the
			// shared slab, so a storm of distinct payloads costs one
			// allocation per 64 sets, not one per set.
			if e := &f.sets[idx]; e.tos == nil {
				if cap(f.tosSlab)-len(f.tosSlab) < smallSetMax {
					f.tosSlab = make([]int32, 0, 64*smallSetMax)
				}
				o := len(f.tosSlab)
				f.tosSlab = f.tosSlab[:o+smallSetMax]
				e.tos = f.tosSlab[o : o : o+smallSetMax]
			}
			f.keys = append(f.keys, key)
			f.hashes = append(f.hashes, h)
			f.table[i] = idx + 1
			if 4*len(f.keys) > 3*len(f.table) {
				f.grow()
			}
		}
		f.lastKey, f.lastIdx, f.lastValid = key, idx, true
	}
	return &f.sets[idx]
}

// grow doubles the index and re-seats every set by its stored hash.
func (f *srcFilter[K]) grow() {
	f.table = make([]int32, 2*len(f.table))
	mask := uint64(len(f.table) - 1)
	for k, h := range f.hashes {
		i := h & mask
		for f.table[i] != 0 {
			i = (i + 1) & mask
		}
		f.table[i] = int32(k + 1)
	}
}
