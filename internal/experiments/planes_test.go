package experiments

// E1, E2, E4 and E10 are fast-path eligible: their protocol/adversary
// cells can run on the simulator core instantiated over the protocol's
// wire union (sim.NewTypedRunner). This test pins the claim that makes
// that rewiring legitimate: for each of those workloads, the same
// configuration run boxed (sim.NewRunner) — the same round loop, with
// the identity codec in place of the union's — produces identical
// protocol-level metrics: rounds, deliveries,
// drops, the per-round schedule and the decided map. InboxGrows is not
// compared (it gauges the allocator, not the protocol). E2 and E10 matter most here: their adversaries
// (RBForgeSource, ConsStaircase) are outside the engine's fast-path
// whitelist, so no engine-level equality test covers them.

import (
	"reflect"
	"testing"

	"idonly/internal/adversary"
	"idonly/internal/core/consensus"
	"idonly/internal/core/rbroadcast"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// onPlane runs nodes on the core instantiated over codec's union when
// typed, and over boxed payloads otherwise: one node slice goes to
// either constructor.
func onPlane[P interface {
	sim.ProcessT[M]
	sim.Process
}, M sim.WireMsg[M]](typed bool, codec sim.Codec[M], cfg sim.Config, nodes []P, faulty []ids.ID, adv sim.Adversary, stop func(int) bool) sim.Metrics {
	if typed {
		return sim.NewTypedRunner(cfg, nodes, faulty, adv, codec).Run(stop)
	}
	return sim.NewRunner(cfg, nodes, faulty, adv).Run(stop)
}

func e1(typed bool) sim.Metrics {
	all := ids.Sparse(ids.NewRand(1), 31)
	var nodes []*rbroadcast.Node
	for j, id := range all[:21] {
		nodes = append(nodes, rbroadcast.New(id, j == 0, "m"))
	}
	return onPlane(typed, rbroadcast.WireCodec(), sim.Config{MaxRounds: 6}, nodes, all[21:], adversary.Silent{},
		func(round int) bool { return round >= 4 })
}

func e2(typed bool) sim.Metrics {
	all := ids.Sparse(ids.NewRand(2), 9) // n = 3f with f = 3
	var nodes []*rbroadcast.Node
	for _, id := range all[:6] {
		nodes = append(nodes, rbroadcast.New(id, false, ""))
	}
	adv := adversary.RBForgeSource{FakeM: "forged", FakeS: all[0]}
	return onPlane(typed, rbroadcast.WireCodec(), sim.Config{MaxRounds: 20}, nodes, all[6:], adv, nil)
}

func e4(typed bool) sim.Metrics {
	const f = 8
	n := 3*f + 1
	all := ids.Sparse(ids.NewRand(4+uint64(f)), n)
	var nodes []*consensus.Node
	for j, id := range all[:n-f] {
		nodes = append(nodes, consensus.New(id, float64(j%2)))
	}
	adv := adversary.ConsSplit{X1: 0, X2: 1, All: all}
	return onPlane(typed, consensus.WireCodec(), sim.Config{StopWhenAllDecided: true}, nodes, all[n-f:], adv, nil)
}

func e10(typed bool) sim.Metrics {
	all := ids.Sparse(ids.NewRand(10+70), 7)
	correct := all[:5]
	var nodes []*consensus.Node
	for j, id := range correct {
		x := 1.0
		if j == len(correct)-1 {
			x = 0
		}
		nodes = append(nodes, consensus.New(id, x))
	}
	adv := adversary.ConsStaircase{X: 1, Boost: correct[:3], Lonely: correct[0]}
	return onPlane(typed, consensus.WireCodec(), sim.Config{MaxRounds: 200, StopWhenAllDecided: true}, nodes, all[5:], adv, nil)
}

func TestTypedWorkloadsMatchReferencePlane(t *testing.T) {
	cases := []struct {
		id  string
		run func(typed bool) sim.Metrics
	}{
		{"E1", e1},
		{"E2", e2},
		{"E4", e4},
		{"E10", e10},
	}
	for _, tc := range cases {
		typed, ref := tc.run(true), tc.run(false)
		typed.InboxGrows, ref.InboxGrows = 0, 0
		if !reflect.DeepEqual(typed, ref) {
			t.Errorf("%s: typed plane diverged from reference\ntyped: %+v\nref:   %+v", tc.id, typed, ref)
		}
	}
}
