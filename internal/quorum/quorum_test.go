package quorum_test

import (
	"testing"
	"testing/quick"

	"idonly/internal/quorum"
)

func TestThresholdExactness(t *testing.T) {
	cases := []struct {
		count, nv  int
		third, two bool
	}{
		{0, 0, true, true},  // vacuous
		{1, 3, true, false}, // 1 ≥ 3/3
		{1, 4, false, false},
		{2, 4, true, false},  // 2 ≥ 4/3
		{3, 4, true, true},   // 3 ≥ 8/3
		{2, 6, true, false},  // exactly nv/3
		{4, 6, true, true},   // exactly 2nv/3
		{3, 6, true, false},  // between
		{6, 9, true, true},   // exactly 2nv/3
		{5, 9, true, false},  // just below 2nv/3
		{2, 7, false, false}, // 6 < 7
		{3, 7, true, false},  // 9 ≥ 7
		{5, 7, true, true},   // 15 ≥ 14
	}
	for _, c := range cases {
		if got := quorum.AtLeastThird(c.count, c.nv); got != c.third {
			t.Errorf("AtLeastThird(%d, %d) = %v, want %v", c.count, c.nv, got, c.third)
		}
		if got := quorum.AtLeastTwoThirds(c.count, c.nv); got != c.two {
			t.Errorf("AtLeastTwoThirds(%d, %d) = %v, want %v", c.count, c.nv, got, c.two)
		}
	}
}

func TestLessThanThirdIsComplement(t *testing.T) {
	f := func(count, nv uint8) bool {
		return quorum.LessThanThird(int(count), int(nv)) != quorum.AtLeastThird(int(count), int(nv))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTwoThirdsImpliesThird(t *testing.T) {
	// Property: 2nv/3 threshold is at least as strong as nv/3.
	f := func(count, nv uint8) bool {
		if quorum.AtLeastTwoThirds(int(count), int(nv)) && int(nv) > 0 {
			return quorum.AtLeastThird(int(count), int(nv))
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloorThird(t *testing.T) {
	for _, c := range []struct{ nv, want int }{{0, 0}, {1, 0}, {2, 0}, {3, 1}, {4, 1}, {6, 2}, {10, 3}} {
		if got := quorum.FloorThird(c.nv); got != c.want {
			t.Errorf("FloorThird(%d) = %d, want %d", c.nv, got, c.want)
		}
	}
}

func TestWitnessesDistinctSenders(t *testing.T) {
	w := quorum.NewWitnesses[string]()
	if !w.Add("k", 1) {
		t.Fatal("first add must report true")
	}
	if w.Add("k", 1) {
		t.Fatal("duplicate sender must report false")
	}
	w.Add("k", 2)
	w.Add("other", 1)
	if w.Count("k") != 2 {
		t.Fatalf("Count = %d, want 2", w.Count("k"))
	}
	if w.Count("missing") != 0 {
		t.Fatal("missing key must count 0")
	}
	if keys := w.AppendKeys(nil); len(keys) != 2 || keys[0] != "k" || keys[1] != "other" {
		t.Fatalf("AppendKeys = %v, want first-witness order [k other]", keys)
	}
}

func TestWitnessesCumulativeProperty(t *testing.T) {
	// Property: count equals the number of distinct senders added,
	// regardless of repetition pattern.
	f := func(senders []uint8) bool {
		w := quorum.NewWitnesses[int]()
		distinct := make(map[uint8]bool)
		for _, s := range senders {
			w.Add(0, int32(s))
			distinct[s] = true
		}
		return w.Count(0) == len(distinct)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTallyBestAndTies(t *testing.T) {
	tl := quorum.NewTally[float64]()
	tl.Add(1, 10)
	tl.Add(1, 11)
	tl.Add(0, 12)
	tl.Add(0, 13)
	// tie between 0 and 1: BestFunc prefers the smaller value
	x, c, ok := tl.BestFunc(func(a, b float64) bool { return a < b })
	if !ok || c != 2 || x != 0 {
		t.Fatalf("BestFunc = (%v, %d, %v), want (0, 2, true)", x, c, ok)
	}
	tl.Add(1, 14)
	x, c, ok = tl.BestFunc(func(a, b float64) bool { return a < b })
	if !ok || c != 3 || x != 1 {
		t.Fatalf("BestFunc = (%v, %d, %v), want (1, 3, true)", x, c, ok)
	}
}

// TestTallyBestEmpty: an empty tally, and one whose only key was opened
// for bulk votes that never came, has no best key.
func TestTallyBestEmpty(t *testing.T) {
	less := func(a, b int) bool { return a < b }
	tl := quorum.NewTally[int]()
	if _, _, ok := tl.BestFunc(less); ok {
		t.Fatal("empty tally must report !ok")
	}
	tl.Senders(3).AddDiff(&quorum.Set{}, &quorum.Set{})
	if _, _, ok := tl.BestFunc(less); ok {
		t.Fatal("a key without votes must not be best")
	}
}

// TestTallyHasSender: the union of a tally's voters is what the
// substitution rules exempt.
func TestTallyHasSender(t *testing.T) {
	tl := quorum.NewTally[string]()
	tl.Add("a", 1)
	tl.Add("b", 70)
	var voted quorum.Set
	tl.AddSendersTo(&voted)
	if !voted.Has(1) || !voted.Has(70) || voted.Has(2) || voted.Len() != 2 {
		t.Fatal("AddSendersTo wrong")
	}
	if tl.Count("a") != 1 || tl.Count("c") != 0 {
		t.Fatal("Count wrong")
	}
}

func TestTallyIdempotentPerSender(t *testing.T) {
	tl := quorum.NewTally[string]()
	tl.Add("x", 5)
	tl.Add("x", 5)
	if tl.Count("x") != 1 {
		t.Fatalf("Count = %d after duplicate votes", tl.Count("x"))
	}
	// ... but a Byzantine sender may vote for several values.
	tl.Add("y", 5)
	if tl.Count("y") != 1 {
		t.Fatal("second value not counted")
	}
}

func TestTallyReset(t *testing.T) {
	tl := quorum.NewTally[int]()
	tl.Add(1, 1)
	tl.Reset()
	if _, _, ok := tl.BestFunc(func(a, b int) bool { return a < b }); tl.Count(1) != 0 || ok {
		t.Fatal("Reset did not clear")
	}
}

// Sender sets keep their first 64 indices inline and promote higher
// ones to overflow words. The tests below cross that boundary (well
// past it, with sparse indices) and check that membership, idempotence
// and counting are unaffected.

func TestWitnessesSmallSetPromotion(t *testing.T) {
	w := quorum.NewWitnesses[string]()
	const n = 100
	for round := 0; round < 2; round++ {
		for i := 1; i <= n; i++ {
			added := w.Add("k", int32(i*7)) // sparse, past the inline word
			if round == 0 && !added {
				t.Fatalf("first Add of sender %d reported duplicate", i*7)
			}
			if round == 1 && added {
				t.Fatalf("second Add of sender %d reported new", i*7)
			}
		}
	}
	if w.Count("k") != n {
		t.Fatalf("Count = %d, want %d", w.Count("k"), n)
	}
}

func TestWitnessesSmallSetInsertOrderIrrelevant(t *testing.T) {
	// Same senders in opposite insertion orders must agree exactly: a
	// bitset is an order-free set.
	f := func(senders []uint16) bool {
		a := quorum.NewWitnesses[int]()
		b := quorum.NewWitnesses[int]()
		for _, s := range senders {
			a.Add(0, int32(s)+1)
		}
		for i := len(senders) - 1; i >= 0; i-- {
			b.Add(0, int32(senders[i])+1)
		}
		if a.Count(0) != b.Count(0) {
			return false
		}
		for _, s := range senders {
			if a.Add(0, int32(s)+1) || b.Add(0, int32(s)+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTallySmallSetPromotion(t *testing.T) {
	tl := quorum.NewTally[int]()
	const n = 150
	for i := 1; i <= n; i++ {
		tl.Add(1, int32(i))
		tl.Add(1, int32(i)) // duplicate votes never double-count
	}
	if tl.Count(1) != n {
		t.Fatalf("Count = %d, want %d", tl.Count(1), n)
	}
	voters := tl.Senders(1)
	for i := 1; i <= n; i++ {
		if !voters.Has(int32(i)) {
			t.Fatalf("lost sender %d", i)
		}
	}
	if voters.Has(n+1) || voters.Has(0) {
		t.Fatal("invented a sender")
	}
}

// TestTallyManyKeys: past the short key scan, a forging sender's many
// values are still told apart, and a Reset tally starts from the scan
// again.
func TestTallyManyKeys(t *testing.T) {
	tl := quorum.NewTally[int]()
	for round := 0; round < 2; round++ {
		for k := 0; k < 40; k++ {
			for s := 0; s <= k%5; s++ {
				tl.Add(k, int32(s))
			}
		}
		for k := 0; k < 40; k++ {
			if got := tl.Count(k); got != k%5+1 {
				t.Fatalf("round %d: Count(%d) = %d, want %d", round, k, got, k%5+1)
			}
		}
		x, c, ok := tl.BestFunc(func(a, b int) bool { return a < b })
		if !ok || x != 4 || c != 5 {
			t.Fatalf("round %d: BestFunc = (%d, %d, %v), want (4, 5, true)", round, x, c, ok)
		}
		tl.Reset()
		if tl.Count(4) != 0 {
			t.Fatalf("round %d: Reset left votes", round)
		}
	}
}
