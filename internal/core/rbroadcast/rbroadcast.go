// Package rbroadcast implements Algorithm 1 of the paper: reliable
// broadcast in the id-only model, where nodes know neither n nor f.
//
// A designated node s broadcasts a message (m, s). Reliable broadcast
// guarantees, for n > 3f:
//
//   - Correctness: if s is correct, every correct node accepts (m, s);
//   - Unforgeability: if a correct node accepts (m, s) and s is
//     correct, then s really broadcast (m, s);
//   - Relay: if a correct node accepts (m, s) in round r, every correct
//     node accepts it by round r+1.
//
// The classical Srikanth–Toueg construction compares echo counts
// against the known constants f+1 and n−f; Algorithm 1 replaces them
// with nv/3 and 2nv/3 where nv is the number of distinct nodes the
// local node has heard from so far. The first round, in which every
// correct node broadcasts either its message or "present", is what
// makes nv a safe denominator: it guarantees nv ≥ g (all good nodes),
// so less than a third of any node's count can ever be Byzantine.
//
// As in the paper, the protocol itself does not terminate — it is a
// building block whose host provides termination — so Node.Decided
// always reports false and runs are bounded by the caller.
package rbroadcast

import (
	"idonly/internal/ids"
	"idonly/internal/quorum"
	"idonly/internal/sim"
)

// Key identifies a broadcast message (m, s).
type Key struct {
	M string // message body
	S ids.ID // claimed source
}

// Initial is the message (m, s) broadcast by the source in round 1.
type Initial struct {
	M string
	S ids.ID
}

// Present is the round-1 broadcast of every non-source node; it exists
// purely so that every correct node contributes to everyone's nv.
type Present struct{}

// Echo is the echo(m, s) message.
type Echo struct {
	M string
	S ids.ID
}

// Node is one correct participant of Algorithm 1. It supports any
// number of concurrent (m, s) keys — the generality the rotor-
// coordinator construction relies on — though the canonical use has a
// single designated source.
type Node struct {
	id       ids.ID
	source   bool
	m        string
	senders  quorum.IDSet           // distinct nodes heard from (defines nv)
	echoes   *quorum.Witnesses[Key] // cumulative distinct echo senders per key
	accepted map[Key]int            // key -> round of acceptance
	echoed   map[Key]bool           // keys for which the round-2 direct echo fired

	directScratch []Key               // per-round direct-initials scratch, reused
	keyScratch    []Key               // per-round echo-key scratch, reused
	out           []sim.SendT[Wire]   // backs StepTyped's return value, reused
	boxed         sim.BoxedStep[Wire] // Step's scratch on the boxed plane
}

// New returns a node. If source is true the node broadcasts (m, id) in
// round 1; otherwise it broadcasts Present and m is ignored.
func New(id ids.ID, source bool, m string) *Node {
	return &Node{
		id:       id,
		source:   source,
		m:        m,
		echoes:   quorum.NewWitnesses[Key](),
		accepted: make(map[Key]int),
		echoed:   make(map[Key]bool),
	}
}

// ID implements sim.Process.
func (n *Node) ID() ids.ID { return n.id }

// Decided implements sim.Process; reliable broadcast never terminates
// on its own (the paper defers termination to the host protocol).
func (n *Node) Decided() bool { return false }

// Output implements sim.Process; it returns the accepted key set.
func (n *Node) Output() any { return n.AcceptedKeys() }

// Accepted reports whether (m, s) has been accepted and in which round.
func (n *Node) Accepted(m string, s ids.ID) (round int, ok bool) {
	round, ok = n.accepted[Key{M: m, S: s}]
	return round, ok
}

// AcceptedKeys returns a copy of the accepted key -> round map.
func (n *Node) AcceptedKeys() map[Key]int {
	out := make(map[Key]int, len(n.accepted))
	for k, r := range n.accepted { //lint:ordered map-to-map copy, order-free
		out[k] = r
	}
	return out
}

// NV returns the node's current nv (distinct nodes heard from).
func (n *Node) NV() int { return n.senders.Len() }

// absorbOne handles one classified message. The sender was already
// counted toward nv by the caller; a payload outside the wire union
// arrives as the zero Wire, whose kind classifies as nothing.
func (n *Node) absorbOne(from ids.ID, w Wire) {
	switch w.Kind {
	case wInitial:
		// "Received (m, s) from s": the initial message is only
		// believed when it arrives directly from its claimed source
		// (the network stamps senders, so this cannot be forged).
		if from == w.S {
			n.directScratch = append(n.directScratch, Key{M: w.M, S: w.S})
		}
	case wEcho:
		n.echoes.Add(Key{M: w.M, S: w.S}, from)
	case wPresent:
		// membership signal only
	}
}

// Step implements sim.Process through the wire codec.
func (n *Node) Step(round int, inbox []sim.Message) []sim.Send {
	return n.boxed.Step(n, codec, round, inbox)
}

// StepTyped implements sim.ProcessT[Wire] and follows Algorithm 1 line
// by line. Every send of Algorithm 1 is a broadcast.
func (n *Node) StepTyped(round int, inbox []sim.MsgT[Wire]) []sim.SendT[Wire] {
	// Every received message counts its sender toward nv, and every
	// echo accumulates a witness, regardless of the round.
	n.directScratch = n.directScratch[:0]
	for _, msg := range inbox {
		n.senders.Add(msg.From)
		n.absorbOne(msg.From, msg.Payload)
	}
	out := n.out[:0]
	switch {
	case round == 1: // Round 1: source broadcasts (m, s); others Present.
		if n.source {
			out = append(out, sim.BroadcastT(Wire{Kind: wInitial, M: n.m, S: n.id}))
		} else {
			out = append(out, sim.BroadcastT(Wire{Kind: wPresent}))
		}
	case round == 2: // Round 2: echo the initial message if received from s.
		for _, k := range n.directScratch {
			if !n.echoed[k] {
				n.echoed[k] = true
				out = append(out, echo(k))
			}
		}
	default: // Rounds 3..∞: threshold echo and accept.
		nv := n.senders.Len()
		n.keyScratch = n.echoes.AppendKeys(n.keyScratch[:0])
		for _, k := range sortedKeys(n.keyScratch) {
			count := n.echoes.Count(k)
			if quorum.AtLeastThird(count, nv) && !hasKey(n.accepted, k) {
				// Line 13: re-broadcast echo while not yet accepted (the
				// pseudocode re-sends each round; receivers deduplicate
				// by distinct sender, so this is idempotent).
				out = append(out, echo(k))
			}
			if quorum.AtLeastTwoThirds(count, nv) && !hasKey(n.accepted, k) {
				n.accepted[k] = round
			}
		}
	}
	n.out = out
	return out
}

// echo is the echo(m, s) broadcast for a key.
func echo(k Key) sim.SendT[Wire] {
	return sim.BroadcastT(Wire{Kind: wEcho, M: k.M, S: k.S})
}

func hasKey(m map[Key]int, k Key) bool {
	_, ok := m[k]
	return ok
}

// sortedKeys orders keys deterministically (by source id, then body).
func sortedKeys(keys []Key) []Key {
	// insertion sort: key counts are tiny in practice
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keyLess(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

func keyLess(a, b Key) bool {
	if a.S != b.S {
		return a.S < b.S
	}
	return a.M < b.M
}
