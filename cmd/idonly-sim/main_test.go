package main

import "testing"

// TestCheckSize: the sizes that used to panic deep inside a run (a
// negative slice bound, a negative id count, a division by an empty
// correct set) are rejected up front; n ≤ 3f still runs.
func TestCheckSize(t *testing.T) {
	cases := []struct {
		n, f int
		ok   bool
	}{
		{10, 3, true},
		{1, 0, true},
		{4, 3, true}, // outside n > 3f: a warning, not an error
		{3, 5, false},
		{-1, 0, false},
		{0, 0, false},
		{4, 4, false},
		{7, -1, false},
	}
	for _, tc := range cases {
		err := checkSize(tc.n, tc.f)
		if (err == nil) != tc.ok {
			t.Errorf("checkSize(n=%d, f=%d) = %v, want ok=%v", tc.n, tc.f, err, tc.ok)
		}
	}
}
