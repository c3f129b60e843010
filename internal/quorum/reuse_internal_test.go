package quorum

// White-box tests of the reuse machinery: Reset must leave tallies,
// witness trackers and their recycled sender sets observationally
// fresh, across the inline-array/map representation boundary.

import (
	"testing"

	"idonly/internal/ids"
)

// TestTallyResetReuse: a reset tally is observationally a fresh one —
// including sets that promoted to the map representation — and reuses
// its sender sets through the free list instead of reallocating.
func TestTallyResetReuse(t *testing.T) {
	tl := NewTally[string]()
	for round := 0; round < 5; round++ {
		for s := 1; s <= 2*smallSetMax+5; s++ { // force promotion past smallSetMax
			tl.Add("hot", ids.ID(s))
			tl.Add("hot", ids.ID(s)) // idempotent
		}
		tl.Add("cold", 7)
		if got := tl.Count("hot"); got != 2*smallSetMax+5 {
			t.Fatalf("round %d: Count(hot) = %d, want %d", round, got, 2*smallSetMax+5)
		}
		if got := tl.Count("cold"); got != 1 {
			t.Fatalf("round %d: Count(cold) = %d, want 1", round, got)
		}
		if !tl.Has("hot", 3) || tl.Has("hot", 999) || !tl.HasSender(7) {
			t.Fatalf("round %d: membership wrong after reuse", round)
		}
		tl.Reset()
		if got := tl.Count("hot"); got != 0 {
			t.Fatalf("round %d: Count after Reset = %d, want 0", round, got)
		}
		if len(tl.Keys()) != 0 || tl.HasSender(7) {
			t.Fatalf("round %d: Reset left residue", round)
		}
	}
}

// TestWitnessesReset mirrors the tally test for the cumulative tracker.
func TestWitnessesReset(t *testing.T) {
	w := NewWitnesses[int]()
	for round := 0; round < 3; round++ {
		for s := 1; s <= smallSetMax+2; s++ {
			if !w.Add(41, ids.ID(s)) {
				t.Fatalf("round %d: Add(41, %d) not new", round, s)
			}
			if w.Add(41, ids.ID(s)) {
				t.Fatalf("round %d: duplicate Add(41, %d) reported new", round, s)
			}
		}
		if got := w.Count(41); got != smallSetMax+2 {
			t.Fatalf("round %d: Count = %d, want %d", round, got, smallSetMax+2)
		}
		if w.Len() != 1 {
			t.Fatalf("round %d: Len = %d, want 1", round, w.Len())
		}
		w.Reset()
		if w.Count(41) != 0 || w.Len() != 0 || len(w.AppendKeys(nil)) != 0 {
			t.Fatalf("round %d: Reset left residue", round)
		}
	}
}

// TestIDSet covers the exported small-set across the inline/map
// boundary.
func TestIDSet(t *testing.T) {
	var s IDSet
	if s.Len() != 0 || s.Has(1) {
		t.Fatal("zero IDSet not empty")
	}
	for i := 1; i <= 3*smallSetMax; i++ {
		if !s.Add(ids.ID(i)) {
			t.Fatalf("Add(%d) not new", i)
		}
		if s.Add(ids.ID(i)) {
			t.Fatalf("re-Add(%d) reported new", i)
		}
	}
	if s.Len() != 3*smallSetMax {
		t.Fatalf("Len = %d, want %d", s.Len(), 3*smallSetMax)
	}
	for i := 1; i <= 3*smallSetMax; i++ {
		if !s.Has(ids.ID(i)) {
			t.Fatalf("Has(%d) = false", i)
		}
	}
	if s.Has(ids.ID(3*smallSetMax + 1)) {
		t.Fatal("phantom membership")
	}
}

// TestIDSetAppendToAndReset: AppendTo lists the members in increasing
// id order after dst's own content, on both representations, and a
// Reset set is empty and reusable.
func TestIDSetAppendToAndReset(t *testing.T) {
	for _, n := range []int{5, 3 * smallSetMax} {
		var s IDSet
		for i := n; i >= 1; i-- { // descending inserts: order must not leak
			s.Add(ids.ID(7 * i))
		}
		got := s.AppendTo([]ids.ID{999})
		if len(got) != n+1 || got[0] != 999 {
			t.Fatalf("n=%d: AppendTo returned %v", n, got)
		}
		for i := 1; i <= n; i++ {
			if got[i] != ids.ID(7*i) {
				t.Fatalf("n=%d: AppendTo[%d] = %d, want %d", n, i, got[i], 7*i)
			}
		}
		s.Reset()
		if s.Len() != 0 || s.Has(7) || len(s.AppendTo(nil)) != 0 {
			t.Fatalf("n=%d: Reset left residue", n)
		}
		if !s.Add(7) || s.Len() != 1 {
			t.Fatalf("n=%d: set unusable after Reset", n)
		}
	}
}
