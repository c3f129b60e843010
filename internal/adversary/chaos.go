package adversary

import (
	"fmt"

	"idonly/internal/baseline"
	"idonly/internal/core/approx"
	"idonly/internal/core/consensus"
	"idonly/internal/core/dynamic"
	"idonly/internal/core/parallel"
	"idonly/internal/core/rbroadcast"
	"idonly/internal/core/rotor"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// Chaos is a seeded fuzzing adversary: every round, every faulty node
// sends a random number of randomly chosen well-typed protocol
// payloads — any protocol's, any field values, broadcast or unicast to
// random subsets, including replays of whatever it received. It makes
// no attempt to be smart; its value is breadth. The safety tests run
// it against every protocol: whatever garbage arrives, agreement-style
// invariants must hold and no node may panic.
//
// Determinism: all randomness comes from the seeded generator, and the
// per-node stream is derived from the node id, so a failing seed
// replays exactly.
type Chaos struct {
	Seed     uint64
	All      []ids.ID // everyone, for unicast targets
	MaxSends int      // per node per round (default 6)
	rngs     map[ids.ID]*ids.Rand
}

// NewChaos returns a chaos adversary over the given population.
func NewChaos(seed uint64, all []ids.ID) *Chaos {
	return &Chaos{Seed: seed, All: all, MaxSends: 6, rngs: make(map[ids.ID]*ids.Rand)}
}

// Step implements sim.Adversary.
func (c *Chaos) Step(node ids.ID, round int, inbox []sim.Message) []sim.Send {
	rng := c.rngs[node]
	if rng == nil {
		rng = ids.NewRand(c.Seed ^ uint64(node))
		c.rngs[node] = rng
	}
	max := c.MaxSends
	if max <= 0 {
		max = 6
	}
	count := rng.Intn(max + 1)
	out := make([]sim.Send, 0, count)
	for i := 0; i < count; i++ {
		payload := c.randomPayload(rng, node, round, inbox)
		if rng.Bool(0.5) || len(c.All) == 0 {
			out = append(out, sim.BroadcastPayload(payload))
		} else {
			out = append(out, sim.Unicast(c.All[rng.Intn(len(c.All))], payload))
		}
	}
	return out
}

// randomPayload draws one payload across every protocol's message
// vocabulary.
func (c *Chaos) randomPayload(rng *ids.Rand, node ids.ID, round int, inbox []sim.Message) any {
	randID := func() ids.ID {
		switch rng.Intn(3) {
		case 0: // a real participant
			if len(c.All) > 0 {
				return c.All[rng.Intn(len(c.All))]
			}
		case 1: // itself
			return node
		}
		return ids.ID(rng.Uint64() % (1 << 40)) // a ghost
	}
	randVal := func() float64 { return float64(rng.Intn(5)) }
	randPVal := func() parallel.Val {
		if rng.Bool(0.2) {
			return parallel.Bot
		}
		return parallel.V(fmt.Sprintf("c%d", rng.Intn(4)))
	}
	randPair := func() parallel.PairID { return parallel.PairID(rng.Intn(8)) }

	switch rng.Intn(20) {
	case 0:
		return rbroadcast.Initial{M: fmt.Sprintf("m%d", rng.Intn(3)), S: randID()}
	case 1:
		return rbroadcast.Present{}
	case 2:
		return rbroadcast.Echo{M: fmt.Sprintf("m%d", rng.Intn(3)), S: randID()}
	case 3:
		return rotor.Init{}
	case 4:
		return rotor.Echo{P: randID()}
	case 5:
		return rotor.Opinion{X: randVal()}
	case 6:
		return consensus.Input{X: randVal()}
	case 7:
		return consensus.Prefer{X: randVal()}
	case 8:
		return consensus.StrongPrefer{X: randVal()}
	case 9:
		return approx.Value{X: randVal()*1e6 - 5e5}
	case 10:
		return parallel.Input{ID: randPair(), X: randPVal()}
	case 11:
		return parallel.Prefer{ID: randPair(), X: randPVal()}
	case 12:
		return parallel.NoPref{ID: randPair()}
	case 13:
		return parallel.StrongPrefer{ID: randPair(), X: randPVal()}
	case 14:
		return parallel.NoStrongPref{ID: randPair()}
	case 15:
		return parallel.Opinion{ID: randPair(), X: randPVal()}
	case 16:
		return dynamic.EventMsg{M: fmt.Sprintf("chaos%d", rng.Intn(3)), R: round - 1 + rng.Intn(3)}
	case 17:
		return dynamic.SessMsg{Sess: max(1, round-rng.Intn(4)), Inner: rotor.Init{}}
	case 18:
		if len(inbox) > 0 { // replay something real
			return inbox[rng.Intn(len(inbox))].Payload
		}
		return baseline.KInput{X: randVal()}
	default:
		return baseline.AValue{X: randVal()}
	}
}
