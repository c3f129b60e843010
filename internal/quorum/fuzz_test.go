package quorum_test

import (
	"maps"
	"testing"

	"idonly/internal/ids"
	"idonly/internal/quorum"
)

// FuzzThresholds cross-checks the exact integer threshold arithmetic
// against a rational-number reference: 3·count ≥ k·nv must agree with
// count ≥ k·nv/3 evaluated without overflow for all small inputs, and
// the trim width must leave at least one survivor.
func FuzzThresholds(f *testing.F) {
	f.Add(0, 0)
	f.Add(1, 3)
	f.Add(2, 6)
	f.Add(4, 6)
	f.Add(5, 7)
	f.Fuzz(func(t *testing.T, count, nv int) {
		if count < 0 || nv < 0 || count > 1<<20 || nv > 1<<20 {
			return
		}
		if got, want := quorum.AtLeastThird(count, nv), 3*count >= nv; got != want {
			t.Fatalf("AtLeastThird(%d, %d) = %v", count, nv, got)
		}
		if got, want := quorum.AtLeastTwoThirds(count, nv), 3*count >= 2*nv; got != want {
			t.Fatalf("AtLeastTwoThirds(%d, %d) = %v", count, nv, got)
		}
		if quorum.LessThanThird(count, nv) == quorum.AtLeastThird(count, nv) {
			t.Fatalf("LessThanThird not the complement at (%d, %d)", count, nv)
		}
		if nv >= 1 {
			trim := quorum.FloorThird(nv)
			if nv-2*trim < 1 {
				t.Fatalf("trim %d leaves nothing of %d", trim, nv)
			}
		}
	})
}

// FuzzSetModel checks Index, Set and Tally against maps. The fuzz bytes
// are a program: each operation is one opcode byte followed by its
// argument bytes. Ids come from a pool of 256 sparse ids, so a program
// of a few hundred bytes numbers well past a Set's 64 inline indices,
// and tally keys from 12 values, past the tally's short key scan.
// Resetting the index resets every set numbered by it, as an execution's
// owner does.
func FuzzSetModel(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 1, 1, 2, 4, 6, 3, 1, 6, 3, 2, 8, 7, 3})
	f.Add([]byte{5, 9, 0, 9, 10, 0, 9, 1, 9})
	f.Fuzz(func(t *testing.T, prog []byte) {
		var (
			x      quorum.Index
			s      quorum.Set
			tl     quorum.Tally[int]
			number = map[ids.ID]int32{}
			inS    = map[ids.ID]bool{}
			votes  = map[int]map[ids.ID]bool{}
		)
		arg := func() byte {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return b
		}
		id := func() ids.ID { return ids.ID(arg())*7919 + 3 }
		of := func(v ids.ID) int32 {
			i := x.Of(v)
			if want, seen := number[v]; seen && i != want {
				t.Fatalf("Of(%d) = %d, numbered %d before", v, i, want)
			} else if !seen {
				if i != int32(len(number)) {
					t.Fatalf("Of(%d) = %d, want first-sight number %d", v, i, len(number))
				}
				number[v] = i
			}
			return i
		}
		lookup := func(v ids.ID) (int32, bool) {
			i, ok := x.Lookup(v)
			if want, seen := number[v]; ok != seen || (ok && i != want) {
				t.Fatalf("Lookup(%d) = (%d, %v), model (%d, %v)", v, i, ok, want, seen)
			}
			return i, ok
		}
		voters := func(k int) map[ids.ID]bool {
			if votes[k] == nil {
				votes[k] = map[ids.ID]bool{}
			}
			return votes[k]
		}
		members := func(set *quorum.Set) map[ids.ID]bool {
			got := map[ids.ID]bool{}
			last := int32(-1)
			set.Each(func(i int32) {
				if i <= last {
					t.Fatalf("Each out of order: %d after %d", i, last)
				}
				last = i
				got[x.ID(i)] = true
			})
			if len(got) != set.Len() {
				t.Fatalf("Each listed %d members, Len %d", len(got), set.Len())
			}
			return got
		}
		for len(prog) > 0 {
			switch op := arg() % 12; op {
			case 0: // Set.Add
				v := id()
				if got := s.Add(of(v)); got == inS[v] {
					t.Fatalf("Add(%d) = %v, model had it: %v", v, got, inS[v])
				}
				inS[v] = true
			case 1: // Set.Has, through Lookup
				v := id()
				if i, ok := lookup(v); (ok && s.Has(i)) != inS[v] {
					t.Fatalf("Has(%d) disagrees with the model (%v)", v, inS[v])
				}
			case 2: // Set.Len
				if s.Len() != len(inS) {
					t.Fatalf("Len = %d, model %d", s.Len(), len(inS))
				}
			case 3: // Set.Reset
				s.Reset()
				clear(inS)
			case 4: // Set.Each
				if got := members(&s); !maps.Equal(got, inS) {
					t.Fatalf("Each = %v, model %v", got, inS)
				}
			case 5: // Index.Of and Index.ID
				v := id()
				if i := of(v); x.ID(i) != v || x.Len() != len(number) {
					t.Fatalf("ID(Of(%d)) = %d, Len %d, model %d", v, x.ID(i), x.Len(), len(number))
				}
			case 6: // Tally.Add
				k, v := int(arg()%12), id()
				tl.Add(k, of(v))
				voters(k)[v] = true
			case 7: // Tally.Count
				if k := int(arg() % 12); tl.Count(k) != len(votes[k]) {
					t.Fatalf("Count(%d) = %d, model %d", k, tl.Count(k), len(votes[k]))
				}
			case 8: // Tally.BestFunc, ties to the smaller key
				key, count, ok := tl.BestFunc(func(a, b int) bool { return a < b })
				wantKey, wantCount := 0, 0
				for k := 11; k >= 0; k-- {
					if n := len(votes[k]); n > 0 && n >= wantCount {
						wantKey, wantCount = k, n
					}
				}
				if ok != (wantCount > 0) || count != wantCount || (ok && key != wantKey) {
					t.Fatalf("BestFunc = (%d, %d, %v), model (%d, %d)", key, count, ok, wantKey, wantCount)
				}
			case 9: // Tally.Reset
				tl.Reset()
				clear(votes)
			case 10: // Tally.AddSendersTo and Set.AddDiff: s ∪= (voters of a) \ (voters of b)
				a, b := int(arg()%12), int(arg()%12)
				var all quorum.Set
				tl.AddSendersTo(&all)
				want := map[ids.ID]bool{}
				for _, vs := range votes {
					maps.Copy(want, vs)
				}
				if got := members(&all); !maps.Equal(got, want) {
					t.Fatalf("AddSendersTo = %v, model %v", got, want)
				}
				tl.Senders(a)
				diff := tl.Senders(b)
				s.AddDiff(tl.Senders(a), diff)
				for v := range votes[a] {
					if !votes[b][v] {
						inS[v] = true
					}
				}
			case 11: // Index.Reset, with every set numbered by it
				x.Reset()
				s.Reset()
				tl.Reset()
				clear(number)
				clear(inS)
				clear(votes)
			}
		}
		if got := members(&s); !maps.Equal(got, inS) {
			t.Fatalf("final set %v, model %v", got, inS)
		}
	})
}
