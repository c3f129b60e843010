package adversary

import (
	"idonly/internal/baseline"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// KingSplit is the phase-king counterpart of ConsSplit: it pushes
// opposite values to the two halves of the system at each round of the
// matched 5-round king phase, and equivocates the king opinion.
// Used for the E5 apples-to-apples comparison.
type KingSplit struct {
	X1, X2 float64
	All    []ids.ID
}

// Step implements sim.Adversary.
func (a KingSplit) Step(node ids.ID, round int, _ []sim.Message) []sim.Send {
	lo, hi := SplitTargets(a.All)
	switch (round - 1) % 5 {
	case 0:
		out := unicastAll(lo, baseline.KInput{X: a.X1})
		return append(out, unicastAll(hi, baseline.KInput{X: a.X2})...)
	case 1:
		out := unicastAll(lo, baseline.KPrefer{X: a.X1})
		return append(out, unicastAll(hi, baseline.KPrefer{X: a.X2})...)
	case 2:
		out := unicastAll(lo, baseline.KStrong{X: a.X1})
		return append(out, unicastAll(hi, baseline.KStrong{X: a.X2})...)
	case 3:
		out := unicastAll(lo, baseline.KKing{X: a.X1})
		return append(out, unicastAll(hi, baseline.KKing{X: a.X2})...)
	default:
		return nil
	}
}

// Blind implements sim.Blind: Step never reads its inbox.
func (KingSplit) Blind() {}

// STForge is the known-f counterpart of RBForgeSource: the faulty
// nodes echo a message attributed to a source that never sent it,
// against the Srikanth–Toueg thresholds (relay f+1, accept 2f+1).
type STForge struct {
	FakeM string
	FakeS ids.ID
}

// Step implements sim.Adversary.
func (a STForge) Step(node ids.ID, round int, _ []sim.Message) []sim.Send {
	if round == 1 {
		return nil
	}
	return []sim.Send{sim.BroadcastPayload(baseline.STEcho{M: a.FakeM, S: a.FakeS})}
}

// Blind implements sim.Blind: Step never reads its inbox.
func (STForge) Blind() {}
