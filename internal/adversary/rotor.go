package adversary

import (
	"idonly/internal/core/rotor"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// appendEchoInits appends to dst the round-2 echo(p) broadcast for
// every rotor init in inbox, as a correct node sends it.
func appendEchoInits(dst []sim.Send, inbox []sim.Message) []sim.Send {
	for _, msg := range inbox {
		if _, ok := msg.Payload.(rotor.Init); ok {
			dst = append(dst, sim.BroadcastPayload(rotor.Echo{P: msg.From}))
		}
	}
	return dst
}

// RotorHidden announces itself (init) to only a subset of nodes,
// aiming for a candidate set Cv that differs across correct nodes —
// exactly the split that Lemma 6 (relay of candidate admission) and
// Lemma 7 (good round before termination) must survive. It echoes
// honestly so it stays plausible, and equivocates its opinion if ever
// selected coordinator.
type RotorHidden struct {
	Subset  []ids.ID // nodes that receive this node's init
	All     []ids.ID // every node (for opinion equivocation)
	X1, X2  float64  // the two opinions to equivocate between
	initted map[ids.ID]bool
	sends   []sim.Send // backs Step's return value, reused across rounds
}

// Step implements sim.Adversary.
func (a *RotorHidden) Step(node ids.ID, round int, inbox []sim.Message) []sim.Send {
	out := a.sends[:0]
	switch round {
	case 1:
		out = unicastAllInto(out, a.Subset, rotor.Init{})
	case 2:
		out = appendEchoInits(out, inbox)
	default:
		// Split opinions every round: a correct node only accepts an
		// opinion from the coordinator it selected, so this is harmless
		// unless this node really is selected — and then it maximally
		// disagrees.
		lo, hi := SplitTargets(a.All)
		out = unicastAllInto(out, lo, rotor.Opinion{X: a.X1})
		out = unicastAllInto(out, hi, rotor.Opinion{X: a.X2})
	}
	a.sends = out
	return out
}

// RotorForge claims echoes for a set of non-existent node identifiers,
// trying to pollute the candidate sets with ghosts. With n > 3f the
// ghosts can never collect 2nv/3 echoes (Lemma 2-style counting), so
// they must never be selected where it matters.
type RotorForge struct {
	Ghosts []ids.ID
}

// Step implements sim.Adversary.
func (a RotorForge) Step(node ids.ID, round int, inbox []sim.Message) []sim.Send {
	if round == 1 {
		return []sim.Send{sim.BroadcastPayload(rotor.Init{})}
	}
	var out []sim.Send
	if round == 2 {
		out = appendEchoInits(out, inbox)
	}
	for _, g := range a.Ghosts {
		out = append(out, sim.BroadcastPayload(rotor.Echo{P: g}))
	}
	return out
}

// RotorLateInit stays invisible during the init rounds and then starts
// echoing and claiming inits late, trying to stretch the candidate
// admission machinery mid-selection (the non-silent-round budget of
// Lemma 7).
type RotorLateInit struct {
	WakeRound int
	Partner   ids.ID // faulty partner to vouch for (may be the node itself)
}

// Step implements sim.Adversary.
func (a RotorLateInit) Step(node ids.ID, round int, _ []sim.Message) []sim.Send {
	if round < a.WakeRound {
		return nil
	}
	p := a.Partner
	if p == 0 {
		p = node
	}
	return []sim.Send{
		sim.BroadcastPayload(rotor.Init{}),
		sim.BroadcastPayload(rotor.Echo{P: p}),
	}
}

// Blind implements sim.Blind: Step never reads its inbox.
func (RotorLateInit) Blind() {}
