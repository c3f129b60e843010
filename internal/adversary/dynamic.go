package adversary

import (
	"fmt"

	"idonly/internal/core/dynamic"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// DynEquivEvent attacks the total-ordering protocol by witnessing
// conflicting events: each round it tells one half of the system it saw
// event A and the other half it saw event B (same round tag, same
// claimed witness — itself). Parallel consensus must converge on one of
// them or on nothing, identically at every correct node.
type DynEquivEvent struct {
	All   []ids.ID
	Every int // attack every k-th round (1 = every round)
}

// Step implements sim.Adversary.
func (a DynEquivEvent) Step(node ids.ID, round int, _ []sim.Message) []sim.Send {
	every := a.Every
	if every <= 0 {
		every = 1
	}
	if round%every != 0 {
		return nil
	}
	lo, hi := SplitTargets(a.All)
	ma := fmt.Sprintf("evil-a-%d", round)
	mb := fmt.Sprintf("evil-b-%d", round)
	out := unicastAll(lo, dynamic.EventMsg{M: ma, R: round})
	return append(out, unicastAll(hi, dynamic.EventMsg{M: mb, R: round})...)
}

// Blind implements sim.Blind: Step never reads its inbox.
func (DynEquivEvent) Blind() {}

// DynBadAck answers every join announcement with a wildly wrong round
// number, trying to desynchronize joiners. The majority rule over acks
// (correct members outnumber the faulty ones, g > 2f) must win.
type DynBadAck struct {
	Offset int // lie added to the true round
}

// Step implements sim.Adversary.
func (a DynBadAck) Step(node ids.ID, round int, inbox []sim.Message) []sim.Send {
	var out []sim.Send
	for _, msg := range inbox {
		if _, ok := msg.Payload.(dynamic.Present); ok {
			out = append(out, sim.Unicast(msg.From, dynamic.Ack{R: round + a.Offset}))
		}
	}
	return out
}
