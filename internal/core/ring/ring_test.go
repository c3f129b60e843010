package ring_test

import (
	"testing"

	"idonly/internal/core/ring"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

func TestHorizon(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 1}, {2, 2}, {3, 3}, {4, 3}, {5, 4}, {8, 4}, {9, 5},
		{1000, 11}, {1024, 11}, {1025, 12}, {100000, 18},
	}
	for _, tc := range cases {
		if got := ring.Horizon(tc.n); got != tc.want {
			t.Errorf("Horizon(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestSuccessorsArePowerOfTwoJumps(t *testing.T) {
	all := []ids.ID{10, 20, 30, 40, 50, 60, 70} // n=7: distances 1, 2, 4
	got := ring.Successors(all, 5)
	want := []ids.ID{70, 10, 30} // indices 6, 0, 2 (wrapping)
	if len(got) != len(want) {
		t.Fatalf("Successors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Successors = %v, want %v", got, want)
		}
	}
}

// buildRing runs n nodes on the reference plane and reports whether
// every node converged to the global minimum by the horizon.
func buildRing(t *testing.T, n int) {
	t.Helper()
	all := ids.Sparse(ids.NewRand(uint64(n)), n)
	horizon := ring.Horizon(n)
	var nodes []*ring.Node
	for i, id := range all {
		nodes = append(nodes, ring.New(id, ring.Successors(all, i), horizon))
	}
	run := sim.NewRunner(sim.Config{MaxRounds: horizon + 2, StopWhenAllDecided: true}, nodes, nil, nil)
	m := run.Run(nil)
	for _, nd := range nodes {
		if !nd.Decided() {
			t.Fatalf("n=%d: node %d undecided after %d rounds (horizon %d)", n, nd.ID(), m.Rounds, horizon)
		}
		if nd.Min() != all[0] {
			t.Fatalf("n=%d: node %d converged to %d, want global min %d", n, nd.ID(), nd.Min(), all[0])
		}
	}
	// The overlay is sparse: each round costs at most n·⌈log₂ n⌉
	// deliveries, not n².
	perRound := int64(n * len(ring.Successors(all, 0)))
	for r, c := range m.ByRound {
		if c > perRound {
			t.Fatalf("n=%d: round %d delivered %d messages, overlay bound is %d", n, r+1, c, perRound)
		}
	}
}

func TestRingConvergesAtHorizon(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16, 17, 64, 100, 1000} {
		buildRing(t, n)
	}
}

// TestJunkLeavesMinUnchanged: payloads outside the probe alphabet (a
// chaos adversary's junk) carry no minimum, so they must not lower the
// running one; a real probe still does.
func TestJunkLeavesMinUnchanged(t *testing.T) {
	nd := ring.New(50, []ids.ID{60}, 5)
	nd.Step(1, []sim.Message{
		{From: 70, Payload: "junk"},
		{From: 80, Payload: struct{ Min ids.ID }{Min: 3}},
	})
	if got := nd.Min(); got != 50 {
		t.Fatalf("Min = %d after junk only, want 50", got)
	}
	nd.Step(2, []sim.Message{{From: 60, Payload: ring.Probe{Min: 20}}})
	if got := nd.Min(); got != 20 {
		t.Fatalf("Min = %d after Probe{20}, want 20", got)
	}
}
