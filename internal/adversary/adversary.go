// Package adversary implements Byzantine strategies for the
// simulations. The model (paper §IV) lets faulty nodes do anything
// except forge the sender id of a direct message: they can stay silent,
// crash, equivocate (send conflicting payloads to different nodes),
// replay, flood, announce themselves to only a subset of nodes, and
// claim in payloads to have heard from non-existent nodes.
//
// Strategies are deterministic given their construction parameters (and
// a seeded generator where randomness is wanted), so every adversarial
// run is reproducible.
package adversary

import (
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// Silent is the adversary whose nodes never send anything. It is the
// weakest adversary but far from harmless in the id-only model: silent
// Byzantine nodes never count toward anyone's nv, so the thresholds are
// evaluated over the correct nodes only — and protocols must still work
// when the faulty nodes suddenly wake up later.
type Silent struct{}

// Step implements sim.Adversary.
func (Silent) Step(ids.ID, int, []sim.Message) []sim.Send { return nil }

// Blind implements sim.Blind: Step never reads its inbox.
func (Silent) Blind() {}

// Replay re-broadcasts every payload the faulty node received in the
// previous round — a cheap chaos strategy that stresses the duplicate
// discarding and distinct-sender counting of the protocols.
type Replay struct{}

// Step implements sim.Adversary.
func (Replay) Step(node ids.ID, round int, inbox []sim.Message) []sim.Send {
	var out []sim.Send
	for _, msg := range inbox {
		out = append(out, sim.BroadcastPayload(msg.Payload))
	}
	return out
}

// Compose assigns a different strategy to each faulty node; nodes
// without an entry fall back to Default (Silent when nil).
type Compose struct {
	PerNode map[ids.ID]sim.Adversary
	Default sim.Adversary
}

// Step implements sim.Adversary.
func (c Compose) Step(node ids.ID, round int, inbox []sim.Message) []sim.Send {
	if a, ok := c.PerNode[node]; ok && a != nil {
		return a.Step(node, round, inbox)
	}
	if c.Default != nil {
		return c.Default.Step(node, round, inbox)
	}
	return nil
}

// SplitTargets partitions the given targets into two halves by index;
// equivocating strategies send one story to Lo and another to Hi.
func SplitTargets(targets []ids.ID) (lo, hi []ids.ID) {
	mid := len(targets) / 2
	return targets[:mid], targets[mid:]
}

// unicastAll builds one Send per target with the same payload.
func unicastAll(targets []ids.ID, payload any) []sim.Send {
	return unicastAllInto(make([]sim.Send, 0, len(targets)), targets, payload)
}

// unicastAllInto appends one Send per target to dst — the scratch-reuse
// form for strategies stepped every round.
func unicastAllInto(dst []sim.Send, targets []ids.ID, payload any) []sim.Send {
	for _, t := range targets {
		dst = append(dst, sim.Unicast(t, payload))
	}
	return dst
}
