package adversary

// The adversary package defines no payload types of its own — every
// strategy speaks the protocols' and baselines' wire formats. This test
// pins that property: everything any strategy ever sends implements
// sim.SortKeyer, so adversarial traffic rides the reflection-free
// delivery path.

import (
	"testing"

	"idonly/internal/core/dynamic"
	"idonly/internal/core/parallel"
	"idonly/internal/core/rbroadcast"
	"idonly/internal/core/rotor"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

func TestAdversaryPayloadsAreRegistered(t *testing.T) {
	all := ids.Consecutive(6)
	strategies := map[string]sim.Adversary{
		"Silent":             Silent{},
		"Replay":             Replay{},
		"Compose":            Compose{PerNode: map[ids.ID]sim.Adversary{all[0]: Replay{}}, Default: Silent{}},
		"Chaos":              NewChaos(7, all),
		"ConsSplit":          ConsSplit{X1: 0, X2: 1, All: all},
		"ConsInitThenSilent": ConsInitThenSilent{},
		"ConsStaircase":      ConsStaircase{X: 1, Boost: all[:3], Lonely: all[0]},
		"ConsStubborn":       ConsStubborn{X: 2},
		"KingSplit":          KingSplit{X1: 0, X2: 1, All: all},
		"STForge":            STForge{FakeM: "f", FakeS: all[1]},
		"RBEquivocate":       RBEquivocate{M1: "a", M2: "b", Targets: all},
		"RBColluder":         RBColluder{Keys: []rbroadcast.Key{{M: "a", S: all[0]}}},
		"RBForgeSource":      RBForgeSource{FakeM: "f", FakeS: all[2]},
		"RBSelective":        RBSelective{M: "m", Subset: all[:3], AlsoEcho: true},
		"RotorHidden":        &RotorHidden{Subset: all[:2], All: all, X1: -1, X2: -2},
		"RotorForge":         RotorForge{Ghosts: all[4:]},
		"RotorLateInit":      RotorLateInit{WakeRound: 3},
		"ApproxOutlier":      ApproxOutlier{Low: -1, High: 1, All: all},
		"ParaGhost":          ParaGhost{Ghost: 9, X: parallel.V("g")},
		"ParaSplit":          ParaSplit{Pair: 1, X1: parallel.V("a"), X2: parallel.V("b"), All: all},
		"DynEquivEvent":      DynEquivEvent{All: all},
		"DynBadAck":          DynBadAck{Offset: 50},
	}
	// An inbox that triggers the echo/ack/replay branches.
	inbox := []sim.Message{
		{From: all[1], Payload: rotor.Init{}},
		{From: all[2], Payload: dynamic.Present{}},
		{From: all[3], Payload: rbroadcast.Echo{M: "a", S: all[0]}},
		{From: all[4], Payload: dynamic.SessMsg{Sess: 2, Inner: parallel.NoPref{ID: 1}}},
	}
	for name, adv := range strategies {
		for round := 1; round <= 8; round++ {
			for _, snd := range adv.Step(all[0], round, inbox) {
				if _, ok := snd.Payload.(sim.SortKeyer); !ok {
					t.Fatalf("%s round %d: payload %T does not implement sim.SortKeyer", name, round, snd.Payload)
				}
			}
		}
	}
}
