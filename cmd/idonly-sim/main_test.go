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

// TestCheckNames: unknown protocol and adversary names are usage errors
// on both paths, whatever -f is — the direct path checks its own names,
// -churn the scenario engine's.
func TestCheckNames(t *testing.T) {
	cases := []struct {
		protocol, adv string
		churn, ok     bool
	}{
		{"consensus", "split", false, true},
		{"rotor", "hidden", false, true},
		{"dynamic", "stubborn", false, true},
		{"consensus", "bogus", false, false}, // -f 0 never built the adversary
		{"bogus", "silent", false, false},
		{"consensus", "chaos", false, false}, // an engine name, not a direct one
		{"ring", "silent", false, false},
		{"consensus", "chaos", true, true},
		{"ring", "none", true, true},
		{"dynamic", "none", true, true},
		{"consensus", "hidden", true, false}, // a direct name, not an engine one
		{"consensus", "bogus", true, false},
		{"bogus", "silent", true, false},
	}
	for _, tc := range cases {
		err := checkNames(tc.protocol, tc.adv, tc.churn)
		if (err == nil) != tc.ok {
			t.Errorf("checkNames(%q, %q, churn=%v) = %v, want ok=%v", tc.protocol, tc.adv, tc.churn, err, tc.ok)
		}
	}
}
