package experiments

// E1, E2, E4 and E10 are fast-path eligible: their protocol/adversary
// cells can run on the simulator core instantiated over the protocol's
// wire union (sim.NewTypedRunner). Their systems are rows of the
// strategy matrix (simtest.Matrix): on every strategy, the §IV model
// included, each must produce the model's trace, outputs and metrics.
// E2 and E10 matter most here: their adversaries (RBForgeSource,
// ConsStaircase) are outside the engine's fast-path whitelist, so no
// engine-level equality test covers them.

import (
	"testing"

	"idonly/internal/adversary"
	"idonly/internal/core/consensus"
	"idonly/internal/core/rbroadcast"
	"idonly/internal/ids"
	"idonly/internal/sim"
	"idonly/internal/simtest"
)

var (
	rbTyped   = simtest.Typed[*rbroadcast.Node](rbroadcast.WireCodec())
	consTyped = simtest.Typed[*consensus.Node](consensus.WireCodec())
)

var e1 = simtest.Workload{Name: "E1", MaxRounds: 4, Typed: rbTyped, Sys: func(simtest.Relabel) simtest.System {
	all := ids.Sparse(ids.NewRand(1), 31)
	var procs []sim.Process
	for j, id := range all[:21] {
		procs = append(procs, rbroadcast.New(id, j == 0, "m"))
	}
	return simtest.System{Procs: procs, Faulty: all[21:], Adv: adversary.Silent{}}
}}

var e2 = simtest.Workload{Name: "E2", MaxRounds: 20, Typed: rbTyped, Sys: func(simtest.Relabel) simtest.System {
	all := ids.Sparse(ids.NewRand(2), 9) // n = 3f with f = 3
	var procs []sim.Process
	for _, id := range all[:6] {
		procs = append(procs, rbroadcast.New(id, false, ""))
	}
	return simtest.System{Procs: procs, Faulty: all[6:], Adv: adversary.RBForgeSource{FakeM: "forged", FakeS: all[0]}}
}}

var e4 = simtest.Workload{Name: "E4", StopDecided: true, Typed: consTyped, Sys: func(simtest.Relabel) simtest.System {
	const f = 8
	n := 3*f + 1
	all := ids.Sparse(ids.NewRand(4+uint64(f)), n)
	var procs []sim.Process
	for j, id := range all[:n-f] {
		procs = append(procs, consensus.New(id, float64(j%2)))
	}
	return simtest.System{Procs: procs, Faulty: all[n-f:], Adv: adversary.ConsSplit{X1: 0, X2: 1, All: all}}
}}

var e10 = simtest.Workload{Name: "E10", MaxRounds: 200, StopDecided: true, Typed: consTyped, Sys: func(simtest.Relabel) simtest.System {
	all := ids.Sparse(ids.NewRand(10+70), 7)
	correct := all[:5]
	var procs []sim.Process
	for j, id := range correct {
		x := 1.0
		if j == len(correct)-1 {
			x = 0
		}
		procs = append(procs, consensus.New(id, x))
	}
	return simtest.System{Procs: procs, Faulty: all[5:], Adv: adversary.ConsStaircase{X: 1, Boost: correct[:3], Lonely: correct[0]}}
}}

func TestExperimentSystemsMatchModel(t *testing.T) {
	simtest.Matrix(t, []simtest.Row{{Workload: e1}, {Workload: e2}, {Workload: e4}, {Workload: e10}}, false)
}
