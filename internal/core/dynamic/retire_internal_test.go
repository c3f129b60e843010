package dynamic

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"idonly/internal/ids"
	"idonly/internal/sim"
)

// chainDigest is a stable fingerprint of one chain.
func chainDigest(chain []Event) string {
	h := sha256.New()
	for _, e := range chain {
		fmt.Fprintf(h, "%d|%d|%q\n", e.Session, e.Node, e.M)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSessionRetirementBound pins the memory claim of retiring sessions
// at harvest: a session started in round r' is final — and deleted —
// once r − r' > 5|S|/2 + 2, so a node never holds more than 5|S|/2 + 3
// of them — nor builds more machines than that — however long the run.
// The chain digests were recorded from the code that kept every session
// for the whole run, on the same seed: neither retirement nor machine
// recycling may change what is ordered.
func TestSessionRetirementBound(t *testing.T) {
	const (
		n          = 14
		rounds     = 200
		wantChain  = "b355f71243f3777b4d32e19f92c163c3265eb4e8aadc4817cf1b0d3dc916a329"
		wantJoiner = "7c3f886a448fcae331ed20acce7727ba37339e3a2a2af13a1a44538613d0156b"
	)
	all := ids.Sparse(ids.NewRand(12), n)
	var nodes []*Node
	for i, id := range all {
		witness := make(map[int][]string)
		for r := 1 + i%5; r <= rounds; r += 5 {
			witness[r] = []string{fmt.Sprintf("e%d-%d", i, r)}
		}
		cfg := Config{ID: id, Founders: all, Witness: witness}
		if i == 3 {
			cfg.LeaveAt = 60
		}
		nodes = append(nodes, New(cfg))
	}
	r := sim.NewRunner(sim.Config{MaxRounds: rounds}, nodes, nil, nil)
	joiner := New(Config{ID: ids.Sparse(ids.NewRand(1212), 1)[0], Witness: map[int][]string{90: {"joined"}}})
	nodes = append(nodes, joiner)
	r.ScheduleJoin(40, joiner)

	r.Run(func(round int) bool {
		for _, nd := range nodes {
			if bound := 5*(n+1)/2 + 3; len(nd.sessions) > bound || machinesAllocated(nd) > bound {
				t.Fatalf("round %d: node %d holds %d sessions and has built %d machines, bound 5|S|/2+3 = %d",
					round, nd.id, len(nd.sessions), machinesAllocated(nd), bound)
			}
		}
		return false
	})

	if !nodes[3].Left() {
		t.Fatal("the leaver never left")
	}
	for _, nd := range nodes {
		if nd.HarvestGap() {
			t.Fatalf("node %d harvested an unfinished session", nd.id)
		}
	}
	if v := PrefixViolations(nodes); v != 0 {
		t.Fatalf("%d chain-prefix violations", v)
	}
	if got := chainDigest(nodes[0].Chain()); got != wantChain {
		t.Fatalf("founder chain digest %s (len %d), want %s", got, len(nodes[0].Chain()), wantChain)
	}
	if got := chainDigest(joiner.Chain()); got != wantJoiner {
		t.Fatalf("joiner chain digest %s (len %d), want %s", got, len(joiner.Chain()), wantJoiner)
	}
}
