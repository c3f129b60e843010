// Package quorum implements the threshold arithmetic of the id-only
// model and the sender sets it counts. The paper replaces the unknown
// fault bound f by the locally observable quantity nv — the number of
// distinct nodes a node v has heard from — and tests message counts
// against nv/3 and 2nv/3.
//
// All comparisons are exact: "at least nv/3" is evaluated as
// 3·count ≥ nv and "at least 2nv/3" as 3·count ≥ 2·nv, with no
// floating-point division, matching the rational inequalities used in
// the paper's proofs.
//
// Every threshold is a sender-set cardinality, so sender sets are the
// protocols' hot structure. The id-only model forbids knowing n, but not
// numbering the ids already seen: an Index gives each id a dense int32
// in first-sight order, and a Set is a bitset over those numbers with
// its count kept on insert. One execution owns one Index; the sets it
// numbers are only meaningful beside it.
package quorum

import (
	"math/bits"
	"slices"

	"idonly/internal/ids"
)

// AtLeastThird reports whether count ≥ nv/3, i.e. 3·count ≥ nv.
func AtLeastThird(count, nv int) bool {
	return 3*count >= nv
}

// AtLeastTwoThirds reports whether count ≥ 2·nv/3, i.e. 3·count ≥ 2·nv.
func AtLeastTwoThirds(count, nv int) bool {
	return 3*count >= 2*nv
}

// LessThanThird reports whether count < nv/3 — the condition under
// which the consensus algorithm adopts the coordinator's opinion.
func LessThanThird(count, nv int) bool {
	return !AtLeastThird(count, nv)
}

// FloorThird returns ⌊nv/3⌋, the trim width of approximate agreement.
func FloorThird(nv int) int {
	return nv / 3
}

// Index numbers ids densely in first-sight order: the first id given to
// Of is 0, the next new one 1, and so on. It is an open-addressing
// table with linear probing over a power-of-two array, never more than
// half full. It grows with what arrives and is never sized by n or f.
// The zero value is an empty index.
type Index struct {
	slots []int32  // dense index + 1; 0 marks an empty slot
	ids   []ids.ID // dense index → id
	shift uint8    // 64 - log2(len(slots))
}

// home is id's first probe position: Fibonacci hashing keeps the top
// bits of a multiplicative hash, so sparse and consecutive ids spread
// alike.
func (x *Index) home(id ids.ID) int {
	return int((uint64(id) * 0x9E3779B97F4A7C15) >> x.shift)
}

// find returns id's slot: the one holding its number, or else the
// empty slot where the probe for it ends.
func (x *Index) find(id ids.ID) (h int, found bool) {
	mask := len(x.slots) - 1
	for h = x.home(id); ; h = (h + 1) & mask {
		switch s := x.slots[h]; {
		case s == 0:
			return h, false
		case x.ids[s-1] == id:
			return h, true
		}
	}
}

// Of returns id's dense index, numbering id first if it is new.
func (x *Index) Of(id ids.ID) int32 {
	if 2*(len(x.ids)+1) > len(x.slots) {
		x.grow()
	}
	h, found := x.find(id)
	if !found {
		x.ids = append(x.ids, id)
		x.slots[h] = int32(len(x.ids))
	}
	return x.slots[h] - 1
}

// Lookup returns id's dense index without numbering it; ok is false
// when the index has not seen id.
func (x *Index) Lookup(id ids.ID) (i int32, ok bool) {
	if len(x.slots) == 0 {
		return 0, false
	}
	if h, found := x.find(id); found {
		return x.slots[h] - 1, true
	}
	return 0, false
}

// ID returns the id numbered i.
func (x *Index) ID(i int32) ids.ID { return x.ids[i] }

// Len returns how many ids are numbered.
func (x *Index) Len() int { return len(x.ids) }

// Reset forgets every id, keeping the table's memory: the next Of
// numbers from 0 again.
func (x *Index) Reset() {
	clear(x.slots)
	x.ids = x.ids[:0]
}

// grow doubles the table (32 slots at first) and re-inserts every id
// under its old number; ids gets room for the new capacity at once.
func (x *Index) grow() {
	n := max(2*len(x.slots), 32)
	x.slots = make([]int32, n)
	x.ids = slices.Grow(x.ids, n/2-len(x.ids))
	x.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	for i, id := range x.ids {
		h, _ := x.find(id)
		x.slots[h] = int32(i) + 1
	}
}

// Set is a set of dense indices: a bitset whose first 64 indices live in
// the struct and whose higher ones live in overflow words, with the
// cardinality kept on insert. The zero value is an empty set; embedding
// one costs no allocation until an index past 63 is added.
type Set struct {
	w0   uint64   // indices 0..63
	over []uint64 // indices 64·(k+1) .. 64·(k+2)-1 in over[k]
	n    int
}

// word returns the word holding index i, or nil if the set has none.
func (s *Set) word(i int32) *uint64 {
	if i < 64 {
		return &s.w0
	}
	if k := int(i>>6) - 1; k < len(s.over) {
		return &s.over[k]
	}
	return nil
}

// Add inserts index i and reports whether it was newly added.
func (s *Set) Add(i int32) bool {
	w := s.word(i)
	if w == nil {
		k := int(i>>6) - 1
		s.over = append(s.over, make([]uint64, k+1-len(s.over))...)
		w = &s.over[k]
	}
	b := uint64(1) << (i & 63)
	if *w&b != 0 {
		return false
	}
	*w |= b
	s.n++
	return true
}

// Has reports whether index i is in the set.
func (s *Set) Has(i int32) bool {
	w := s.word(i)
	return w != nil && *w&(uint64(1)<<(i&63)) != 0
}

// Len returns the cardinality.
func (s *Set) Len() int { return s.n }

// Reset empties the set in place, keeping its overflow words.
func (s *Set) Reset() {
	s.w0, s.n = 0, 0
	clear(s.over)
}

// Each calls fn for every index in the set, in increasing order. (That
// is first-sight order, not id order: callers that need ids in order
// sort them.)
func (s *Set) Each(fn func(i int32)) {
	for k := -1; k < len(s.over); k++ {
		w := s.w0
		if k >= 0 {
			w = s.over[k]
		}
		for ; w != 0; w &= w - 1 {
			fn(int32(64*(k+1) + bits.TrailingZeros64(w)))
		}
	}
}

// AddDiff adds to s every index of a that is not in b: s ∪= a \ b.
func (s *Set) AddDiff(a, b *Set) {
	s.w0 = s.or(s.w0, a.w0&^b.w0)
	for k, w := range a.over {
		if k < len(b.over) {
			w &^= b.over[k]
		}
		if w == 0 {
			continue
		}
		if k >= len(s.over) {
			s.over = append(s.over, make([]uint64, k+1-len(s.over))...)
		}
		s.over[k] = s.or(s.over[k], w)
	}
}

// or returns w|v and counts v's bits that w lacked.
func (s *Set) or(w, v uint64) uint64 {
	s.n += bits.OnesCount64(v &^ w)
	return w | v
}

// keyed maps keys to sender sets. Entries are kept in insertion order
// and found by a short scan; once a tracker holds more than scanMax keys
// — only an adversary forging many values gets there — a map takes over
// the lookup. Reset rewinds the entries and resets their sets in place,
// so a tracker that is reset every round stops allocating once warm.
type keyed[K comparable] struct {
	es  []entry[K]  // reset entries wait beyond len
	pos map[K]int32 // key → position, valid while len(es) > scanMax
}

type entry[K comparable] struct {
	key K
	set Set
}

const scanMax = 8

func (t *keyed[K]) find(key K) int {
	if len(t.es) > scanMax {
		if i, ok := t.pos[key]; ok {
			return int(i)
		}
		return -1
	}
	for i := range t.es {
		if t.es[i].key == key {
			return i
		}
	}
	return -1
}

// senders returns key's sender set, adding key with an empty set if it
// is new. The pointer is valid until the next call that adds a key.
func (t *keyed[K]) senders(key K) *Set {
	i := t.find(key)
	if i < 0 {
		i = len(t.es)
		if i < cap(t.es) {
			t.es = t.es[:i+1]
			t.es[i].key = key
		} else {
			t.es = append(slices.Grow(t.es, 2), entry[K]{key: key})
		}
		switch {
		case i == scanMax:
			if t.pos == nil {
				t.pos = make(map[K]int32, 2*scanMax)
			}
			clear(t.pos)
			for j := range t.es {
				t.pos[t.es[j].key] = int32(j)
			}
		case i > scanMax:
			t.pos[key] = int32(i)
		}
	}
	return &t.es[i].set
}

func (t *keyed[K]) count(key K) int {
	if i := t.find(key); i >= 0 {
		return t.es[i].set.Len()
	}
	return 0
}

func (t *keyed[K]) reset() {
	for i := range t.es {
		t.es[i].set.Reset()
	}
	t.es = t.es[:0]
}

// Witnesses tracks, per message key, the cumulative set of distinct
// senders observed across rounds — the Srikanth–Toueg counting
// semantics used by Algorithm 1. A sender is counted at most once per
// key no matter how many rounds it repeats the message. Senders are
// dense indices of the caller's Index.
type Witnesses[K comparable] struct{ t keyed[K] }

// NewWitnesses returns an empty witness tracker.
func NewWitnesses[K comparable]() *Witnesses[K] {
	return &Witnesses[K]{}
}

// Add records that sender has vouched for key. It reports whether this
// is the first time the sender vouched for the key.
func (w *Witnesses[K]) Add(key K, sender int32) bool {
	return w.t.senders(key).Add(sender)
}

// Count returns the number of distinct senders recorded for key.
func (w *Witnesses[K]) Count(key K) int { return w.t.count(key) }

// AppendKeys appends all keys with at least one witness to dst, in
// first-witness order; callers that need another order sort.
func (w *Witnesses[K]) AppendKeys(dst []K) []K {
	for i := range w.t.es {
		dst = append(dst, w.t.es[i].key)
	}
	return dst
}

// Len returns the number of keys with at least one witness.
func (w *Witnesses[K]) Len() int { return len(w.t.es) }

// Reset clears the tracker for reuse, keeping its memory.
func (w *Witnesses[K]) Reset() { w.t.reset() }

// Tally counts, for a single round, how many distinct senders sent each
// key. Unlike Witnesses it is reset every round; the consensus
// algorithms (Alg. 3 and Alg. 5) count per-round, not cumulatively.
// Senders are dense indices of the caller's Index.
type Tally[K comparable] struct{ t keyed[K] }

// NewTally returns an empty per-round tally.
func NewTally[K comparable]() *Tally[K] {
	return &Tally[K]{}
}

// Add records one vote by sender for key (idempotent per sender).
func (t *Tally[K]) Add(key K, sender int32) { t.t.senders(key).Add(sender) }

// Count returns the number of distinct senders that voted for key.
func (t *Tally[K]) Count(key K) int { return t.t.count(key) }

// Senders returns key's voter set for bulk votes (Set.AddDiff), adding
// key if it is new. The pointer is valid until the next vote for a new
// key.
func (t *Tally[K]) Senders(key K) *Set { return t.t.senders(key) }

// AddSendersTo adds to dst every sender that voted for any key — the
// set the substitution rules exempt ("did this member send any message
// of this kind this round?").
func (t *Tally[K]) AddSendersTo(dst *Set) {
	var none Set
	for i := range t.t.es {
		dst.AddDiff(&t.t.es[i].set, &none)
	}
}

// BestFunc returns the key with the most votes, breaking ties with
// less(a, b) == true meaning a is preferred; keys without votes do not
// count. ok is false when no key has a vote.
func (t *Tally[K]) BestFunc(less func(a, b K) bool) (key K, count int, ok bool) {
	for i := range t.t.es {
		e := &t.t.es[i]
		c := e.set.Len()
		switch {
		case c == 0:
		case !ok, c > count:
			key, count, ok = e.key, c, true
		case c == count && less(e.key, key):
			key = e.key
		}
	}
	return key, count, ok
}

// Reset clears the tally for reuse in the next round, keeping its
// memory, so the per-round tallies of a long run stop allocating after
// warm-up.
func (t *Tally[K]) Reset() { t.t.reset() }
