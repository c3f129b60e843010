package experiments

// E1, E2, E4 and E10 are fast-path eligible: their protocol/adversary
// cells can run on the simulator core instantiated over the protocol's
// wire union (sim.NewTypedRunner). This test pins the claim that makes
// that rewiring legitimate: for each of those workloads, a boxed
// (sim.NewRunner) reconstruction of the same configuration — the same
// round loop, with the identity codec in place of the union's —
// produces identical protocol-level metrics: rounds, deliveries,
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

func typedE1() sim.Metrics {
	rng := ids.NewRand(1)
	all := ids.Sparse(rng, 31)
	var procs []*rbroadcast.Node
	for j, id := range all[:21] {
		procs = append(procs, rbroadcast.New(id, j == 0, "m"))
	}
	r := sim.NewTypedRunner(sim.Config{MaxRounds: 6}, procs, all[21:], adversary.Silent{}, rbroadcast.WireCodec())
	return r.Run(func(round int) bool { return round >= 4 })
}

func refE1() sim.Metrics {
	rng := ids.NewRand(1)
	all := ids.Sparse(rng, 31)
	var procs []sim.Process
	for j, id := range all[:21] {
		procs = append(procs, rbroadcast.New(id, j == 0, "m"))
	}
	r := sim.NewRunner(sim.Config{MaxRounds: 6}, procs, all[21:], adversary.Silent{})
	return r.Run(func(round int) bool { return round >= 4 })
}

func typedE2() sim.Metrics {
	rng := ids.NewRand(2)
	all := ids.Sparse(rng, 9) // n = 3f with f = 3
	var procs []*rbroadcast.Node
	for _, id := range all[:6] {
		procs = append(procs, rbroadcast.New(id, false, ""))
	}
	adv := adversary.RBForgeSource{FakeM: "forged", FakeS: all[0]}
	r := sim.NewTypedRunner(sim.Config{MaxRounds: 20}, procs, all[6:], adv, rbroadcast.WireCodec())
	return r.Run(nil)
}

func refE2() sim.Metrics {
	rng := ids.NewRand(2)
	all := ids.Sparse(rng, 9)
	var procs []sim.Process
	for _, id := range all[:6] {
		procs = append(procs, rbroadcast.New(id, false, ""))
	}
	adv := adversary.RBForgeSource{FakeM: "forged", FakeS: all[0]}
	r := sim.NewRunner(sim.Config{MaxRounds: 20}, procs, all[6:], adv)
	return r.Run(nil)
}

func typedE4() sim.Metrics {
	const f = 8
	n := 3*f + 1
	rng := ids.NewRand(4 + uint64(f))
	all := ids.Sparse(rng, n)
	var procs []*consensus.Node
	for j, id := range all[:n-f] {
		procs = append(procs, consensus.New(id, float64(j%2)))
	}
	adv := adversary.ConsSplit{X1: 0, X2: 1, All: all}
	r := sim.NewTypedRunner(sim.Config{StopWhenAllDecided: true}, procs, all[n-f:], adv, consensus.WireCodec())
	return r.Run(nil)
}

func refE4() sim.Metrics {
	const f = 8
	n := 3*f + 1
	rng := ids.NewRand(4 + uint64(f))
	all := ids.Sparse(rng, n)
	var procs []sim.Process
	for j, id := range all[:n-f] {
		procs = append(procs, consensus.New(id, float64(j%2)))
	}
	adv := adversary.ConsSplit{X1: 0, X2: 1, All: all}
	r := sim.NewRunner(sim.Config{StopWhenAllDecided: true}, procs, all[n-f:], adv)
	return r.Run(nil)
}

func typedE10() sim.Metrics {
	rng := ids.NewRand(10 + 70)
	all := ids.Sparse(rng, 7)
	correct := all[:5]
	var procs []*consensus.Node
	for j, id := range correct {
		x := 1.0
		if j == len(correct)-1 {
			x = 0
		}
		procs = append(procs, consensus.New(id, x))
	}
	adv := adversary.ConsStaircase{X: 1, Boost: correct[:3], Lonely: correct[0]}
	r := sim.NewTypedRunner(sim.Config{MaxRounds: 200, StopWhenAllDecided: true}, procs, all[5:], adv, consensus.WireCodec())
	return r.Run(nil)
}

func refE10() sim.Metrics {
	rng := ids.NewRand(10 + 70)
	all := ids.Sparse(rng, 7)
	correct := all[:5]
	var procs []sim.Process
	for j, id := range correct {
		x := 1.0
		if j == len(correct)-1 {
			x = 0
		}
		procs = append(procs, consensus.New(id, x))
	}
	adv := adversary.ConsStaircase{X: 1, Boost: correct[:3], Lonely: correct[0]}
	r := sim.NewRunner(sim.Config{MaxRounds: 200, StopWhenAllDecided: true}, procs, all[5:], adv)
	return r.Run(nil)
}

func TestTypedWorkloadsMatchReferencePlane(t *testing.T) {
	cases := []struct {
		id         string
		typed, ref func() sim.Metrics
	}{
		{"E1", typedE1, refE1},
		{"E2", typedE2, refE2},
		{"E4", typedE4, refE4},
		{"E10", typedE10, refE10},
	}
	for _, tc := range cases {
		typed := tc.typed()
		ref := tc.ref()
		typed.InboxGrows, ref.InboxGrows = 0, 0
		if !reflect.DeepEqual(typed, ref) {
			t.Errorf("%s: typed plane diverged from reference\ntyped: %+v\nref:   %+v", tc.id, typed, ref)
		}
	}
}
