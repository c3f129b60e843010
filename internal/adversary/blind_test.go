package adversary_test

import (
	"reflect"
	"testing"

	"idonly/internal/adversary"
	"idonly/internal/core/dynamic"
	"idonly/internal/core/parallel"
	"idonly/internal/core/rbroadcast"
	"idonly/internal/core/rotor"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// A blind adversary's faulty slots keep no inbox (sim.Blind), so the
// declaration must be true of the strategy: its sends cannot depend on
// what it was handed. TestBlindIgnoresInbox holds every blind strategy
// to that, and TestInboxReadersAreNotBlind keeps the declaration off the
// strategies whose Step does read.

func TestBlindIgnoresInbox(t *testing.T) {
	all := ids.Sparse(ids.NewRand(21), 9)
	blind := map[string]sim.Blind{
		"Silent":        adversary.Silent{},
		"DynEquivEvent": adversary.DynEquivEvent{All: all, Every: 2},
		"RBEquivocate":  adversary.RBEquivocate{M1: "a", M2: "b", Targets: all},
		"RBColluder":    adversary.RBColluder{Keys: []rbroadcast.Key{{M: "m", S: all[0]}}},
		"RBForgeSource": adversary.RBForgeSource{FakeM: "forged", FakeS: all[0]},
		"RBSelective":   adversary.RBSelective{M: "m", Subset: all[:3], AlsoEcho: true},
		"KingSplit":     adversary.KingSplit{X1: 0, X2: 1, All: all},
		"STForge":       adversary.STForge{FakeM: "forged", FakeS: all[0]},
		"ApproxOutlier": adversary.ApproxOutlier{Low: -1, High: 1, All: all},
		"RotorLateInit": adversary.RotorLateInit{WakeRound: 4, Partner: all[8]},
	}
	// An inbox every strategy above would have reason to react to, were
	// it reading: inits and presents to echo or ack, events, session
	// traffic and rbroadcast echoes.
	var inbox []sim.Message
	for _, from := range all[:6] {
		inbox = append(inbox,
			sim.Message{From: from, Payload: rotor.Init{}},
			sim.Message{From: from, Payload: rotor.Echo{P: from}},
			sim.Message{From: from, Payload: dynamic.Present{}},
			sim.Message{From: from, Payload: dynamic.EventMsg{M: "e", R: 3}},
			sim.Message{From: from, Payload: dynamic.SessMsg{Sess: 2, Inner: parallel.Input{ID: 1, X: parallel.V("x")}}},
			sim.Message{From: from, Payload: rbroadcast.Echo{M: "m", S: all[0]}})
	}
	for name, a := range blind {
		for _, node := range []ids.ID{all[6], all[7], all[8]} {
			for round := 1; round <= 12; round++ {
				// Copy each result before the next call: a strategy may
				// reuse its send slice.
				want := clone(a.Step(node, round, nil))
				got := clone(a.Step(node, round, inbox))
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: node %d round %d sends %v with an inbox, %v without", name, node, round, got, want)
				}
			}
		}
	}
}

func clone(s []sim.Send) []sim.Send { return append([]sim.Send{}, s...) }

func TestInboxReadersAreNotBlind(t *testing.T) {
	readers := map[string]sim.Adversary{
		"Replay":             adversary.Replay{},
		"Compose":            adversary.Compose{},
		"Chaos":              adversary.NewChaos(1, nil),
		"ConsSplit":          adversary.ConsSplit{},
		"ConsInitThenSilent": adversary.ConsInitThenSilent{},
		"ConsStaircase":      adversary.ConsStaircase{},
		"ConsStubborn":       adversary.ConsStubborn{},
		"ParaSplit":          adversary.ParaSplit{},
		"ParaGhost":          adversary.ParaGhost{},
		"RotorHidden":        &adversary.RotorHidden{},
		"RotorForge":         adversary.RotorForge{},
		"DynBadAck":          adversary.DynBadAck{},
	}
	for name, a := range readers {
		if _, blind := a.(sim.Blind); blind {
			t.Errorf("%s reads its inbox but declares sim.Blind", name)
		}
	}
}
