package quorum

// White-box tests of the reuse machinery: Reset must leave indices,
// sender sets, tallies and witness trackers observationally fresh,
// across a Set's inline word, and keep their memory for the next use.

import (
	"slices"
	"testing"

	"idonly/internal/ids"
)

// TestTallyResetReuse: a reset tally is observationally a fresh one —
// including sets that spilled into overflow words — and a warm tally
// runs a round without allocating.
func TestTallyResetReuse(t *testing.T) {
	tl := NewTally[string]()
	round := func() {
		for s := int32(0); s < 2*64+5; s++ {
			tl.Add("hot", s)
			tl.Add("hot", s) // idempotent
		}
		tl.Add("cold", 7)
	}
	for r := 0; r < 5; r++ {
		round()
		if got := tl.Count("hot"); got != 2*64+5 {
			t.Fatalf("round %d: Count(hot) = %d, want %d", r, got, 2*64+5)
		}
		if got := tl.Count("cold"); got != 1 {
			t.Fatalf("round %d: Count(cold) = %d, want 1", r, got)
		}
		var voted Set
		tl.AddSendersTo(&voted)
		if voted.Len() != 2*64+5 || !voted.Has(7) || voted.Has(999) {
			t.Fatalf("round %d: membership wrong after reuse", r)
		}
		tl.Reset()
		if got := tl.Count("hot"); got != 0 {
			t.Fatalf("round %d: Count after Reset = %d, want 0", r, got)
		}
		if len(tl.t.es) != 0 || tl.t.es[:1][0].set.Len() != 0 {
			t.Fatalf("round %d: Reset left residue", r)
		}
	}
	if got := testing.AllocsPerRun(20, func() { tl.Reset(); round() }); got != 0 {
		t.Fatalf("a warm tally allocates %.0f times per round", got)
	}
}

// TestWitnessesReset mirrors the tally test for the cumulative tracker.
func TestWitnessesReset(t *testing.T) {
	w := NewWitnesses[int]()
	for round := 0; round < 3; round++ {
		for s := int32(1); s <= 64+2; s++ {
			if !w.Add(41, s) {
				t.Fatalf("round %d: Add(41, %d) not new", round, s)
			}
			if w.Add(41, s) {
				t.Fatalf("round %d: duplicate Add(41, %d) reported new", round, s)
			}
		}
		if got := w.Count(41); got != 64+2 {
			t.Fatalf("round %d: Count = %d, want %d", round, got, 64+2)
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

// TestIDSet numbers sparse ids through an Index into a Set across the
// inline word, and checks the numbering is first-sight order.
func TestIDSet(t *testing.T) {
	var x Index
	var s Set
	if s.Len() != 0 || s.Has(1) || x.Len() != 0 {
		t.Fatal("zero Index and Set not empty")
	}
	if _, ok := x.Lookup(7); ok {
		t.Fatal("empty index found an id")
	}
	const n = 3 * 64
	for i := 1; i <= n; i++ {
		id := ids.ID(7919 * i)
		if got := x.Of(id); got != int32(i-1) {
			t.Fatalf("Of(%d) = %d, want first-sight number %d", id, got, i-1)
		}
		if !s.Add(x.Of(id)) {
			t.Fatalf("Add(%d) not new", id)
		}
		if s.Add(x.Of(id)) {
			t.Fatalf("re-Add(%d) reported new", id)
		}
	}
	if s.Len() != n || x.Len() != n {
		t.Fatalf("Len = %d, index Len = %d, want %d", s.Len(), x.Len(), n)
	}
	for i := 1; i <= n; i++ {
		id := ids.ID(7919 * i)
		if j, ok := x.Lookup(id); !ok || x.ID(j) != id || !s.Has(j) {
			t.Fatalf("lost id %d", id)
		}
	}
	if _, ok := x.Lookup(ids.ID(7919*n + 1)); ok || s.Has(n) {
		t.Fatal("phantom membership")
	}
	x.Reset()
	if x.Len() != 0 || x.Of(5) != 0 {
		t.Fatal("a reset index does not number from 0")
	}
	if _, ok := x.Lookup(7919); ok {
		t.Fatal("a reset index still finds an old id")
	}
}

// TestSetEachAndReset: Each lists the members in increasing index order
// on both sides of the inline word, and a Reset set is empty and
// reusable.
func TestSetEachAndReset(t *testing.T) {
	for _, n := range []int{5, 3 * 64} {
		var s Set
		for i := n; i >= 1; i-- { // descending inserts: order must not leak
			s.Add(int32(3 * i))
		}
		var got []int32
		s.Each(func(i int32) { got = append(got, i) })
		if len(got) != n || !slices.IsSorted(got) || got[0] != 3 || got[n-1] != int32(3*n) {
			t.Fatalf("n=%d: Each listed %v", n, got)
		}
		s.Reset()
		got = got[:0]
		s.Each(func(i int32) { got = append(got, i) })
		if s.Len() != 0 || s.Has(3) || len(got) != 0 {
			t.Fatalf("n=%d: Reset left residue", n)
		}
		if !s.Add(3) || s.Len() != 1 {
			t.Fatalf("n=%d: set unusable after Reset", n)
		}
	}
}
