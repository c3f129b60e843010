// Package quorum implements the threshold arithmetic of the id-only
// model. The paper replaces the unknown fault bound f by the locally
// observable quantity nv — the number of distinct nodes a node v has
// heard from — and tests message counts against nv/3 and 2nv/3.
//
// All comparisons are exact: "at least nv/3" is evaluated as
// 3·count ≥ nv and "at least 2nv/3" as 3·count ≥ 2·nv, with no
// floating-point division, matching the rational inequalities used in
// the paper's proofs.
package quorum

import (
	"slices"
	"sort"

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

// smallSetMax is the cardinality up to which witness sets use the
// sorted-slice representation. The sets here are the per-node hot
// structures of every protocol, and in the paper's regime (n a few
// dozen, thresholds at nv/3) most sets stay tiny: a sorted slice has
// no per-entry boxing, hashes nothing, and membership is a short
// binary search over a few cache lines. Sets that outgrow the
// threshold promote to a map once and stay there. 32 covers every
// full-membership witness set of the E1–E10 workloads (n ≤ 32 there;
// promotion profiling showed the n=25/31 runs paying one map per
// (key, node) at the old threshold of 16), while a set is still only
// 280 bytes.
const smallSetMax = 32

// idSet is a set of node ids optimised for small cardinalities: a
// sorted array inlined in the struct up to smallSetMax entries (so the
// whole set is one allocation and zero growth), a map beyond. The zero
// value is an empty set.
type idSet struct {
	n     int // entries in small when big == nil
	small [smallSetMax]ids.ID
	big   map[ids.ID]struct{}
}

// reset empties the set in place for reuse: the inline array rewinds
// and a promoted map keeps its buckets. A reset set is observationally
// identical to a fresh one.
func (s *idSet) reset() {
	s.n = 0
	if s.big != nil {
		clear(s.big)
	}
}

// add inserts id and reports whether it was newly added.
func (s *idSet) add(id ids.ID) bool {
	if s.big != nil {
		if _, ok := s.big[id]; ok {
			return false
		}
		s.big[id] = struct{}{}
		return true
	}
	sm := s.small[:s.n]
	i := sort.Search(len(sm), func(i int) bool { return sm[i] >= id })
	if i < len(sm) && sm[i] == id {
		return false
	}
	if s.n < smallSetMax {
		copy(s.small[i+1:s.n+1], s.small[i:s.n])
		s.small[i] = id
		s.n++
		return true
	}
	s.big = make(map[ids.ID]struct{}, 2*smallSetMax)
	for _, v := range sm {
		s.big[v] = struct{}{}
	}
	s.n = 0
	s.big[id] = struct{}{}
	return true
}

func (s *idSet) has(id ids.ID) bool {
	if s == nil {
		return false
	}
	if s.big != nil {
		_, ok := s.big[id]
		return ok
	}
	sm := s.small[:s.n]
	i := sort.Search(len(sm), func(i int) bool { return sm[i] >= id })
	return i < len(sm) && sm[i] == id
}

func (s *idSet) len() int {
	if s == nil {
		return 0
	}
	if s.big != nil {
		return len(s.big)
	}
	return s.n
}

// IDSet is the exported form of the small-set representation for
// callers that track plain sender sets (the nv bookkeeping of the
// protocols): inline sorted array up to smallSetMax ids, map beyond.
// The zero value is an empty set ready for use — embedding it in a
// node costs no allocation at all for systems up to smallSetMax
// participants, where a map would pay its header plus growth.
type IDSet struct{ set idSet }

// Add inserts id and reports whether it was newly added.
func (s *IDSet) Add(id ids.ID) bool { return s.set.add(id) }

// Has reports membership.
func (s *IDSet) Has(id ids.ID) bool { return s.set.has(id) }

// Len returns the cardinality.
func (s *IDSet) Len() int { return s.set.len() }

// Reset empties the set in place for reuse.
func (s *IDSet) Reset() { s.set.reset() }

// AppendTo appends the members to dst in increasing id order.
func (s *IDSet) AppendTo(dst []ids.ID) []ids.ID {
	if s.set.big == nil {
		return append(dst, s.set.small[:s.set.n]...)
	}
	at := len(dst)
	for id := range s.set.big {
		dst = append(dst, id)
	}
	slices.Sort(dst[at:])
	return dst
}

// Witnesses tracks, per message key, the cumulative set of distinct
// senders observed across rounds — the Srikanth–Toueg counting
// semantics used by Algorithm 1 and Algorithm 2. A sender is counted at
// most once per key no matter how many rounds it repeats the message.
type Witnesses[K comparable] struct {
	byKey map[K]*idSet
	free  []*idSet // reset sets awaiting reuse (filled by Reset)
}

// NewWitnesses returns an empty witness tracker. The key map is
// created lazily on first Add, so an idle tracker costs one struct.
func NewWitnesses[K comparable]() *Witnesses[K] {
	return &Witnesses[K]{}
}

// Add records that sender has vouched for key. It reports whether this
// is the first time the sender vouched for the key.
func (w *Witnesses[K]) Add(key K, sender ids.ID) bool {
	if w.byKey == nil {
		w.byKey = make(map[K]*idSet, 8)
	}
	set := w.byKey[key]
	if set == nil {
		if n := len(w.free); n > 0 {
			set = w.free[n-1]
			w.free[n-1] = nil
			w.free = w.free[:n-1]
		} else {
			set = &idSet{}
		}
		w.byKey[key] = set
	}
	return set.add(sender)
}

// Count returns the number of distinct senders recorded for key.
func (w *Witnesses[K]) Count(key K) int {
	return w.byKey[key].len()
}

// Has reports whether sender already vouched for key.
func (w *Witnesses[K]) Has(key K, sender ids.ID) bool {
	return w.byKey[key].has(sender)
}

// Keys returns all keys with at least one witness, in unspecified order.
func (w *Witnesses[K]) Keys() []K {
	return w.AppendKeys(nil)
}

// AppendKeys appends all keys with at least one witness to dst, in
// unspecified order — the allocation-free form of Keys for callers
// holding a reusable scratch slice.
func (w *Witnesses[K]) AppendKeys(dst []K) []K {
	for k := range w.byKey { //lint:ordered contractually unordered; callers sort or reduce commutatively
		dst = append(dst, k)
	}
	return dst
}

// Len returns the number of keys with at least one witness.
func (w *Witnesses[K]) Len() int { return len(w.byKey) }

// Reset clears the tracker for reuse, keeping the key map's buckets and
// recycling the per-key sender sets through an internal free list, so a
// long-lived tracker that is periodically reset stops allocating.
func (w *Witnesses[K]) Reset() {
	for _, set := range w.byKey { //lint:ordered sets are fully reset; free-list order only affects reused capacity
		set.reset()
		w.free = append(w.free, set)
	}
	clear(w.byKey)
}

// Tally counts, for a single round, how many distinct senders sent each
// key. Unlike Witnesses it is reset every round; the consensus
// algorithms (Alg. 3 and Alg. 5) count per-round, not cumulatively.
type Tally[K comparable] struct {
	byKey map[K]*idSet
	free  []*idSet // reset sets awaiting reuse (filled by Reset)
}

// NewTally returns an empty per-round tally.
func NewTally[K comparable]() *Tally[K] {
	return &Tally[K]{byKey: make(map[K]*idSet)}
}

// Add records one vote by sender for key (idempotent per sender).
func (t *Tally[K]) Add(key K, sender ids.ID) {
	set := t.byKey[key]
	if set == nil {
		if n := len(t.free); n > 0 {
			set = t.free[n-1]
			t.free[n-1] = nil
			t.free = t.free[:n-1]
		} else {
			set = &idSet{}
		}
		t.byKey[key] = set
	}
	set.add(sender)
}

// Count returns the number of distinct senders that voted for key.
func (t *Tally[K]) Count(key K) int {
	return t.byKey[key].len()
}

// Best returns the key with the most votes and its count. ok is false
// when the tally is empty. Ties are broken deterministically by
// preferring the key whose set was built first is not possible with map
// iteration, so ties are broken by count only after callers filter with
// a threshold; for the threshold uses in this repository at most one
// key can pass 2nv/3 and at most two can pass nv/3, and callers that
// need determinism use BestFunc with an explicit order.
func (t *Tally[K]) Best() (key K, count int, ok bool) {
	for k, set := range t.byKey { //lint:ordered threshold callers admit at most one qualifying key
		if set.len() > count {
			key, count, ok = k, set.len(), true
		}
	}
	return key, count, ok
}

// BestFunc returns the key with the most votes, breaking ties with
// less(a, b) == true meaning a is preferred. ok is false when empty.
func (t *Tally[K]) BestFunc(less func(a, b K) bool) (key K, count int, ok bool) {
	for k, set := range t.byKey { //lint:ordered less() tie-break is a total order, so the max is order-free
		switch {
		case !ok, set.len() > count:
			key, count, ok = k, set.len(), true
		case set.len() == count && less(k, key):
			key = k
		}
	}
	return key, count, ok
}

// Has reports whether sender voted for key.
func (t *Tally[K]) Has(key K, sender ids.ID) bool {
	return t.byKey[key].has(sender)
}

// HasSender reports whether sender voted for any key in this tally —
// the probe used by the substitution rules ("did this member send any
// message of this kind this round?").
func (t *Tally[K]) HasSender(sender ids.ID) bool {
	for _, set := range t.byKey { //lint:ordered existence check, order-free
		if set.has(sender) {
			return true
		}
	}
	return false
}

// Keys returns all keys present in the tally.
func (t *Tally[K]) Keys() []K {
	out := make([]K, 0, len(t.byKey))
	for k := range t.byKey { //lint:ordered contractually unordered; callers sort or reduce commutatively
		out = append(out, k)
	}
	return out
}

// Reset clears the tally for reuse in the next round, keeping the
// outer map's buckets and recycling the per-key sender sets through an
// internal free list, so the per-round tallies of a long run stop
// allocating after warm-up.
func (t *Tally[K]) Reset() {
	for _, set := range t.byKey { //lint:ordered sets are fully reset; free-list order only affects reused capacity
		set.reset()
		t.free = append(t.free, set)
	}
	clear(t.byKey)
}
