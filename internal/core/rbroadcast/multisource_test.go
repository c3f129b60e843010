package rbroadcast_test

import (
	"fmt"
	"testing"

	"idonly/internal/core/rbroadcast"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

func TestAllNodesBroadcastConcurrently(t *testing.T) {
	// Every node is a source of its own message; every correct node must
	// accept all g messages, all in round 3.
	for _, tc := range []struct{ n, f int }{{4, 1}, {7, 2}, {13, 4}} {
		rng := ids.NewRand(uint64(tc.n))
		all := ids.Sparse(rng, tc.n)
		correct := all[:tc.n-tc.f]
		faulty := all[tc.n-tc.f:]
		var nodes []*rbroadcast.Node
		for i, id := range correct {
			nodes = append(nodes, rbroadcast.New(id, true, fmt.Sprintf("msg-%d", i)))
		}
		r := sim.NewRunner(sim.Config{MaxRounds: 8}, nodes, faulty, silentAdv{})
		r.Run(nil)
		for _, nd := range nodes {
			for i, src := range correct {
				round, ok := nd.Accepted(fmt.Sprintf("msg-%d", i), src)
				if !ok {
					t.Fatalf("n=%d: node %d missed message from %d", tc.n, nd.ID(), src)
				}
				if round != 3 {
					t.Fatalf("n=%d: concurrent broadcast accepted in round %d, want 3", tc.n, round)
				}
			}
			if got := len(nd.AcceptedKeys()); got != len(correct) {
				t.Fatalf("n=%d: node %d accepted %d keys, want %d", tc.n, nd.ID(), got, len(correct))
			}
		}
	}
}

type silentAdv struct{}

func (silentAdv) Step(ids.ID, int, []sim.Message) []sim.Send { return nil }

func TestConcurrentSourcesDistinctPayloadsSameBody(t *testing.T) {
	// Two sources broadcasting the *same* message body must yield two
	// distinct accepted keys (m, s1) and (m, s2) — keys are (body,
	// source) pairs, not bodies.
	rng := ids.NewRand(5)
	all := ids.Sparse(rng, 4)
	var nodes []*rbroadcast.Node
	for i, id := range all {
		nodes = append(nodes, rbroadcast.New(id, i < 2, "same-body"))
	}
	r := sim.NewRunner(sim.Config{MaxRounds: 6}, nodes, nil, nil)
	r.Run(nil)
	for _, nd := range nodes {
		if len(nd.AcceptedKeys()) != 2 {
			t.Fatalf("node %d accepted %v, want two distinct keys", nd.ID(), nd.AcceptedKeys())
		}
		for _, src := range all[:2] {
			if _, ok := nd.Accepted("same-body", src); !ok {
				t.Fatalf("node %d missed source %d", nd.ID(), src)
			}
		}
	}
}

func TestNVGrowsMonotonically(t *testing.T) {
	rng := ids.NewRand(6)
	all := ids.Sparse(rng, 5)
	var nodes []*rbroadcast.Node
	for i, id := range all {
		nodes = append(nodes, rbroadcast.New(id, i == 0, "m"))
	}
	r := sim.NewRunner(sim.Config{MaxRounds: 6}, nodes, nil, nil)
	prev := 0
	r.Run(func(round int) bool {
		nv := nodes[0].NV()
		if nv < prev {
			t.Fatalf("nv shrank from %d to %d", prev, nv)
		}
		prev = nv
		return false
	})
	if nodes[0].NV() != 5 {
		t.Fatalf("final nv = %d, want 5", nodes[0].NV())
	}
}
