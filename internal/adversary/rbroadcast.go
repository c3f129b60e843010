package adversary

import (
	"idonly/internal/core/rbroadcast"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// RBEquivocate is a faulty reliable-broadcast *source* that tells half
// the system it broadcast M1 and the other half M2. With n > 3f neither
// message can be accepted by one correct node without eventually being
// accepted by all (relay), and the two messages can never both reach
// acceptance thresholds built from correct echoes — the attack that
// Algorithm 1's unforgeability/relay properties are about.
type RBEquivocate struct {
	M1, M2  string
	Targets []ids.ID // all nodes, typically; split in half by index
}

// Step implements sim.Adversary.
func (a RBEquivocate) Step(node ids.ID, round int, _ []sim.Message) []sim.Send {
	if round != 1 {
		return nil
	}
	lo, hi := SplitTargets(a.Targets)
	out := unicastAll(lo, rbroadcast.Initial{M: a.M1, S: node})
	out = append(out, unicastAll(hi, rbroadcast.Initial{M: a.M2, S: node})...)
	return out
}

// Blind implements sim.Blind: Step never reads its inbox.
func (RBEquivocate) Blind() {}

// RBColluder is a faulty echoer that vouches for every message of an
// equivocating partner (both stories), and optionally for a message
// from a non-existent source — the indirect forgery the model allows
// ("claiming to have received messages from other, possibly
// non-existent, nodes").
type RBColluder struct {
	Keys []rbroadcast.Key // the (m, s) pairs to echo every round
}

// Step implements sim.Adversary.
func (a RBColluder) Step(node ids.ID, round int, _ []sim.Message) []sim.Send {
	if round == 1 {
		// Participate in the first round so the colluder counts toward
		// nv — the strongest position for inflating denominators later.
		return []sim.Send{sim.BroadcastPayload(rbroadcast.Present{})}
	}
	var out []sim.Send
	for _, k := range a.Keys {
		out = append(out, sim.BroadcastPayload(rbroadcast.Echo{M: k.M, S: k.S}))
	}
	return out
}

// Blind implements sim.Blind: Step never reads its inbox.
func (RBColluder) Blind() {}

// RBForgeSource echoes a message attributed to a source id that does
// not exist in the system at all. Unforgeability says such a message is
// only ever accepted if enough *correct* nodes echo it, which they
// never do — so acceptance of the fake key would be a violation. Used
// both at n > 3f (must never be accepted) and at n = 3f (violations
// become possible and E2 measures them).
type RBForgeSource struct {
	FakeM string
	FakeS ids.ID
}

// Step implements sim.Adversary.
func (a RBForgeSource) Step(node ids.ID, round int, _ []sim.Message) []sim.Send {
	if round == 1 {
		return []sim.Send{sim.BroadcastPayload(rbroadcast.Present{})}
	}
	return []sim.Send{sim.BroadcastPayload(rbroadcast.Echo{M: a.FakeM, S: a.FakeS})}
}

// Blind implements sim.Blind: Step never reads its inbox.
func (RBForgeSource) Blind() {}

// RBSelective is a faulty source that broadcasts its message to only a
// chosen subset, hoping to create a split where some correct nodes
// accept and others never do — the relay property's adversary.
type RBSelective struct {
	M        string
	Subset   []ids.ID // the nodes that get the initial message
	AlsoEcho bool     // whether the node also echoes its own message later
}

// Step implements sim.Adversary.
func (a RBSelective) Step(node ids.ID, round int, _ []sim.Message) []sim.Send {
	switch {
	case round == 1:
		return unicastAll(a.Subset, rbroadcast.Initial{M: a.M, S: node})
	case a.AlsoEcho:
		return []sim.Send{sim.BroadcastPayload(rbroadcast.Echo{M: a.M, S: node})}
	}
	return nil
}

// Blind implements sim.Blind: Step never reads its inbox.
func (RBSelective) Blind() {}
