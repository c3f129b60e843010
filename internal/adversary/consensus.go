package adversary

import (
	"idonly/internal/core/consensus"
	"idonly/internal/core/rotor"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// ConsSplit is the canonical consensus attacker: it participates in the
// initialization (so it counts toward everyone's nv), then pushes
// opposite values to the two halves of the system at every phase round
// — inputs, prefers, strongprefers — and equivocates its rotor opinion
// in case it is ever selected coordinator. This is the strongest
// value-targeting strategy expressible without reading other nodes'
// internal state and is the adversary used by E4/E5.
type ConsSplit struct {
	X1, X2 float64
	All    []ids.ID
}

// Step implements sim.Adversary.
func (a ConsSplit) Step(node ids.ID, round int, inbox []sim.Message) []sim.Send {
	lo, hi := SplitTargets(a.All)
	switch round {
	case 1:
		return []sim.Send{sim.BroadcastPayload(rotor.Init{})}
	case 2:
		return appendEchoInits(nil, inbox)
	}
	switch (round - consensus.InitRounds - 1) % consensus.PhaseRounds {
	case 0: // A: equivocate inputs
		out := unicastAll(lo, consensus.Input{X: a.X1})
		return append(out, unicastAll(hi, consensus.Input{X: a.X2})...)
	case 1: // B: equivocate prefers
		out := unicastAll(lo, consensus.Prefer{X: a.X1})
		return append(out, unicastAll(hi, consensus.Prefer{X: a.X2})...)
	case 2: // C: equivocate strongprefers
		out := unicastAll(lo, consensus.StrongPrefer{X: a.X1})
		return append(out, unicastAll(hi, consensus.StrongPrefer{X: a.X2})...)
	case 3: // D: equivocate the coordinator opinion
		out := unicastAll(lo, rotor.Opinion{X: a.X1})
		return append(out, unicastAll(hi, rotor.Opinion{X: a.X2})...)
	default:
		return nil
	}
}

// ConsInitThenSilent joins the initialization so it inflates every
// node's frozen nv, then never sends again — the adversary the
// substitution rule ("assume the silent member sent what I sent") must
// neutralize. Without the rule, thresholds over nv would be
// unreachable and the protocol would livelock; E10 measures exactly
// that.
type ConsInitThenSilent struct{}

// Step implements sim.Adversary.
func (ConsInitThenSilent) Step(node ids.ID, round int, inbox []sim.Message) []sim.Send {
	switch round {
	case 1:
		return []sim.Send{sim.BroadcastPayload(rotor.Init{})}
	case 2:
		return appendEchoInits(nil, inbox)
	}
	return nil
}

// ConsStaircase engineers a *staggered* decision: it feeds just enough
// targeted votes that exactly the Lonely node crosses the 2nv/3
// strongprefer threshold in phase 1 and decides alone, after which the
// adversary goes silent. The decided node and the f faulty members all
// stop sending, so the remaining correct nodes can finish only through
// the substitution rule — the E10a ablation runs this adversary with
// the rule on and off.
//
// The staircase (phase 1 only): targeted Input{X} votes to Boost so
// they all send prefer(X); targeted Prefer{X} votes to Boost so they
// all send strongprefer(X); targeted StrongPrefer{X} votes to Lonely
// so it alone reaches 2nv/3 strongprefers.
type ConsStaircase struct {
	X      float64
	Boost  []ids.ID // correct nodes pushed over the prefer/strong thresholds
	Lonely ids.ID   // the node pushed over the decide threshold
}

// Step implements sim.Adversary.
func (a ConsStaircase) Step(node ids.ID, round int, inbox []sim.Message) []sim.Send {
	switch round {
	case 1:
		return []sim.Send{sim.BroadcastPayload(rotor.Init{})}
	case 2:
		return appendEchoInits(nil, inbox)
	case 3: // phase-1 round A: input votes arrive in B
		return unicastAll(a.Boost, consensus.Input{X: a.X})
	case 4: // phase-1 round B: prefer votes arrive in C
		return unicastAll(a.Boost, consensus.Prefer{X: a.X})
	case 5: // phase-1 round C: strongprefer votes arrive in D
		return []sim.Send{sim.Unicast(a.Lonely, consensus.StrongPrefer{X: a.X})}
	}
	return nil
}

// ConsStubborn pushes one fixed value to everyone at every phase round
// — a simple "wrong value" pressure adversary, useful for validity
// tests (all-correct-agree must win over f stubborn liars).
type ConsStubborn struct {
	X float64
}

// Step implements sim.Adversary.
func (a ConsStubborn) Step(node ids.ID, round int, inbox []sim.Message) []sim.Send {
	switch round {
	case 1:
		return []sim.Send{sim.BroadcastPayload(rotor.Init{})}
	case 2:
		return appendEchoInits(nil, inbox)
	}
	switch (round - consensus.InitRounds - 1) % consensus.PhaseRounds {
	case 0:
		return []sim.Send{sim.BroadcastPayload(consensus.Input{X: a.X})}
	case 1:
		return []sim.Send{sim.BroadcastPayload(consensus.Prefer{X: a.X})}
	case 2:
		return []sim.Send{sim.BroadcastPayload(consensus.StrongPrefer{X: a.X})}
	case 3:
		return []sim.Send{sim.BroadcastPayload(rotor.Opinion{X: a.X})}
	default:
		return nil
	}
}
