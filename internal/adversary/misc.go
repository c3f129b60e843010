package adversary

import (
	"idonly/internal/baseline"
	"idonly/internal/core/approx"
	"idonly/internal/core/consensus"
	"idonly/internal/core/parallel"
	"idonly/internal/core/rotor"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// ApproxOutlier attacks approximate agreement by pulling the two halves
// of the system apart: it reports Low to one half and High to the other
// every round. The trim of ⌊nv/3⌋ at each extreme must keep every
// correct output inside the correct input range regardless. It speaks
// both the id-only (approx.Value) and known-f (baseline.AValue) wire
// formats so the same attack applies to either algorithm — each node
// simply ignores the dialect it does not understand.
type ApproxOutlier struct {
	Low, High float64
	All       []ids.ID
}

// Step implements sim.Adversary.
func (a ApproxOutlier) Step(node ids.ID, round int, _ []sim.Message) []sim.Send {
	lo, hi := SplitTargets(a.All)
	out := unicastAll(lo, approx.Value{X: a.Low})
	out = append(out, unicastAll(hi, approx.Value{X: a.High})...)
	out = append(out, unicastAll(lo, baseline.AValue{X: a.Low})...)
	out = append(out, unicastAll(hi, baseline.AValue{X: a.High})...)
	return out
}

// Blind implements sim.Blind: Step never reads its inbox.
func (ApproxOutlier) Blind() {}

// ParaGhost injects messages for a pair id that no correct node has as
// input: an input at the legal discovery round, then prefers and
// strongprefers with a real value, trying to trick some correct node
// into outputting a pair nobody input (which Theorem 5 forbids — the ⊥
// fill must win).
type ParaGhost struct {
	Ghost parallel.PairID
	X     parallel.Val
	// StartKind selects the injection point: 0 input@B, 1 prefer@C,
	// 2 strongprefer@D — the three cases of the Theorem 5 case split.
	StartKind int
}

// Step implements sim.Adversary.
func (a ParaGhost) Step(node ids.ID, round int, inbox []sim.Message) []sim.Send {
	switch round {
	case 1:
		return []sim.Send{sim.BroadcastPayload(rotor.Init{})}
	case 2:
		return appendEchoInits(nil, inbox)
	}
	// Phase-1 rounds: A=3, B=4, C=5, D=6, E=7. Discovery windows are
	// B (inputs), C (prefers), D (strongprefers, buffered for E).
	switch {
	case a.StartKind == 0 && round == 3:
		return []sim.Send{sim.BroadcastPayload(parallel.Input{ID: a.Ghost, X: a.X})}
	case a.StartKind <= 1 && round == 4:
		return []sim.Send{sim.BroadcastPayload(parallel.Prefer{ID: a.Ghost, X: a.X})}
	case a.StartKind <= 2 && round == 5:
		return []sim.Send{sim.BroadcastPayload(parallel.StrongPrefer{ID: a.Ghost, X: a.X})}
	}
	return nil
}

// ParaSplit equivocates values for a real pair id between the two
// halves of the system — the parallel-consensus version of ConsSplit.
type ParaSplit struct {
	Pair   parallel.PairID
	X1, X2 parallel.Val
	All    []ids.ID
}

// Step implements sim.Adversary.
func (a ParaSplit) Step(node ids.ID, round int, inbox []sim.Message) []sim.Send {
	lo, hi := SplitTargets(a.All)
	switch round {
	case 1:
		return []sim.Send{sim.BroadcastPayload(rotor.Init{})}
	case 2:
		return appendEchoInits(nil, inbox)
	}
	switch (round - consensus.InitRounds - 1) % consensus.PhaseRounds {
	case 0:
		out := unicastAll(lo, parallel.Input{ID: a.Pair, X: a.X1})
		return append(out, unicastAll(hi, parallel.Input{ID: a.Pair, X: a.X2})...)
	case 1:
		out := unicastAll(lo, parallel.Prefer{ID: a.Pair, X: a.X1})
		return append(out, unicastAll(hi, parallel.Prefer{ID: a.Pair, X: a.X2})...)
	case 2:
		out := unicastAll(lo, parallel.StrongPrefer{ID: a.Pair, X: a.X1})
		return append(out, unicastAll(hi, parallel.StrongPrefer{ID: a.Pair, X: a.X2})...)
	case 3:
		out := unicastAll(lo, parallel.Opinion{ID: a.Pair, X: a.X1})
		return append(out, unicastAll(hi, parallel.Opinion{ID: a.Pair, X: a.X2})...)
	default:
		return nil
	}
}
