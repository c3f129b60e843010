// Package consensus implements Algorithm 3 of the paper: an O(f)-round
// early-terminating consensus in the id-only model, generalizing the
// Berman–Garay–Perry construction to unknown n and f.
//
// Opinions are real numbers (the paper uses reals so the algorithm can
// later order arbitrary events). Each phase spans five rounds:
//
//	A: broadcast input(xv)
//	B: count inputs;  ≥ 2nv/3 on one value  -> broadcast prefer(x)
//	C: count prefers; ≥ nv/3 -> adopt x; ≥ 2nv/3 -> broadcast strongprefer(x)
//	D: rotor-coordinator round (coordinator broadcasts its opinion);
//	   the strongprefer messages from C arrive and are buffered
//	E: the coordinator opinion arrives; if some value has ≥ 2nv/3
//	   strongprefers, terminate with it; if every value has < nv/3,
//	   adopt the coordinator's opinion
//
// Initialization (two rounds) doubles as the rotor-coordinator's init
// and fixes nv: the node records every identifier heard during
// initialization as a member, and thereafter discards messages from
// non-members. A member that goes silent is "filled in" with the
// node's own message of the corresponding kind from the previous round
// (the substitution rule in the Algorithm 3 caption); this is what
// lets nodes that already terminated go silent without stalling the
// laggards, which finish at most one phase later (Lemma 8 + Lemma 10).
package consensus

import (
	"idonly/internal/core/rotor"
	"idonly/internal/ids"
	"idonly/internal/quorum"
	"idonly/internal/sim"
)

// Input is the phase round-A broadcast input(x).
type Input struct {
	X float64
}

// Prefer is the phase round-B broadcast prefer(x).
type Prefer struct {
	X float64
}

// StrongPrefer is the phase round-C broadcast strongprefer(x).
type StrongPrefer struct {
	X float64
}

// PhaseRounds is the number of rounds per phase and InitRounds the
// number of initialization rounds (shared with Algorithm 5; Theorem 6's
// finality constant 5|S|/2 + 2 is PhaseRounds·|S|/2 + InitRounds).
const (
	PhaseRounds = 5
	InitRounds  = 2
)

// Node is one correct Algorithm 3 participant.
type Node struct {
	id   ids.ID
	xv   float64 // current opinion
	opts Options

	// idx numbers every id this node has seen; the sets below hold its
	// numbers. senders collects who spoke during initialization and is
	// then frozen as the membership, whose size is nv.
	idx     quorum.Index
	core    *rotor.Core
	senders quorum.Set
	frozen  bool
	nv      int
	scratch quorum.Set // substitute's responders

	// most recent message of each kind this node sent, for the
	// substitution rule ("assume the silent member sent what I sent").
	lastInput, lastPrefer, lastStrong          float64
	hasLastInput, hasLastPrefer, hasLastStrong bool

	strongTally *quorum.Tally[float64] // buffered from round D, judged in E
	prevCoord   ids.ID                 // coordinator selected in this phase's round D

	// Per-round scratch, reset (not reallocated) at the start of every
	// StepTyped. strongTally and inStrongs swap in round D, so the
	// buffered strongprefers survive round E's reset without a fresh
	// tally.
	inInputs, inPrefers, inStrongs *quorum.Tally[float64]
	inOpinions                     map[ids.ID]float64
	out                            []sim.SendT[Wire]   // backs StepTyped's return value, reused
	boxed                          sim.BoxedStep[Wire] // Step's scratch on the boxed plane

	phase        int // 1-based phase counter
	decided      bool
	output       float64
	decidedRound int
	coordAdopted int // times the node adopted a coordinator opinion (for experiments)
}

// Options tunes the algorithm for the ablation experiments; the zero
// value is the paper's Algorithm 3.
type Options struct {
	// NoSubstitution disables the silent-member substitution rule. With
	// it off, members that stop sending (terminated or Byzantine-silent)
	// make the 2nv/3 thresholds unreachable and the protocol livelocks —
	// experiment E10 measures exactly that.
	NoSubstitution bool
}

// New returns a consensus node with input x.
func New(id ids.ID, x float64) *Node {
	return NewWithOptions(id, x, Options{})
}

// NewWithOptions returns a consensus node with explicit options.
func NewWithOptions(id ids.ID, x float64, opts Options) *Node {
	n := &Node{
		id:          id,
		xv:          x,
		opts:        opts,
		strongTally: quorum.NewTally[float64](),
		inInputs:    quorum.NewTally[float64](),
		inPrefers:   quorum.NewTally[float64](),
		inStrongs:   quorum.NewTally[float64](),
		inOpinions:  make(map[ids.ID]float64),
	}
	n.core = rotor.NewCore(id, &n.idx)
	return n
}

// ID implements sim.Process.
func (n *Node) ID() ids.ID { return n.id }

// Decided implements sim.Process.
func (n *Node) Decided() bool { return n.decided }

// Output implements sim.Process.
func (n *Node) Output() any { return n.output }

// Value returns the decided value (valid once Decided).
func (n *Node) Value() float64 { return n.output }

// DecidedRound returns the round of termination (0 if still running).
func (n *Node) DecidedRound() int { return n.decidedRound }

// Phases returns the number of phases started.
func (n *Node) Phases() int { return n.phase }

// CoordinatorAdoptions returns how often this node switched to a
// coordinator opinion — an observable for the E10 ablations.
func (n *Node) CoordinatorAdoptions() int { return n.coordAdopted }

// NV returns the frozen membership size (0 before initialization ends).
func (n *Node) NV() int { return n.nv }

// Step implements sim.Process through the wire codec.
func (n *Node) Step(round int, inbox []sim.Message) []sim.Send {
	return n.boxed.Step(n, codec, round, inbox)
}

// StepTyped implements sim.ProcessT[Wire]: it classifies the inbox, then
// runs one round of Algorithm 3. Every send of Algorithm 3 is a
// broadcast.
func (n *Node) StepTyped(round int, inbox []sim.MsgT[Wire]) []sim.SendT[Wire] {
	// Classify the inbox into the per-round scratch: membership/rotor
	// bookkeeping plus per-kind tallies of this round's messages.
	// Messages from non-members are discarded once the membership is
	// frozen. Any message — even one outside the wire union, like a
	// chaos adversary's junk, which arrives as the zero Wire — counts
	// its sender toward the pre-freeze senders set; only classification
	// is union-gated. Inboxes are sender-sorted, so the membership check
	// and the sender's number are looked up once per sender run.
	n.inInputs.Reset()
	n.inPrefers.Reset()
	n.inStrongs.Reset()
	clear(n.inOpinions)
	from, last, ok := int32(-1), ids.ID(0), false
	for _, msg := range inbox {
		if from < 0 || msg.From != last {
			last = msg.From
			if !n.frozen {
				from, ok = n.idx.Of(last), true
				n.senders.Add(from)
			} else {
				from, ok = n.idx.Lookup(last)
				ok = ok && n.senders.Has(from)
			}
		}
		if ok {
			n.absorbOne(last, from, msg.Payload)
		}
	}

	out := n.out[:0]
	defer func() { n.out = out }()

	switch round {
	case 1: // init round 1: rotor init broadcast
		out = append(out, sim.BroadcastT(Wire{Kind: wInit}))
		return out
	case 2: // init round 2: rotor echoes for every init received
		for _, p := range n.core.EchoInits() {
			out = append(out, sim.BroadcastT(Wire{Kind: wEcho, P: p}))
		}
		return out
	}

	if !n.frozen {
		// Membership freezes at the start of round 3: everyone who sent
		// a message during the two initialization rounds counts toward
		// nv; everyone else is ignored forever after (Alg. 3 line 2).
		n.frozen = true
		n.nv = n.senders.Len()
	}

	switch (round - InitRounds - 1) % PhaseRounds {
	case 0: // A — broadcast input(xv)
		n.phase++
		n.lastInput, n.hasLastInput = n.xv, true
		n.hasLastPrefer, n.hasLastStrong = false, false
		out = append(out, sim.BroadcastT(Wire{Kind: wInput, X: n.xv}))

	case 1: // B — count inputs, maybe broadcast prefer
		n.substitute(n.inInputs, n.lastInput, n.hasLastInput)
		if x, count, ok := best(n.inInputs); ok && quorum.AtLeastTwoThirds(count, n.nv) {
			n.lastPrefer, n.hasLastPrefer = x, true
			out = append(out, sim.BroadcastT(Wire{Kind: wPrefer, X: x}))
		}

	case 2: // C — count prefers, adopt, maybe broadcast strongprefer
		n.substitute(n.inPrefers, n.lastPrefer, n.hasLastPrefer)
		if x, count, ok := best(n.inPrefers); ok {
			if quorum.AtLeastThird(count, n.nv) {
				n.xv = x
			}
			if quorum.AtLeastTwoThirds(count, n.nv) {
				n.lastStrong, n.hasLastStrong = x, true
				out = append(out, sim.BroadcastT(Wire{Kind: wStrong, X: x}))
			}
		}

	case 3: // D — rotor round; strongprefers arrive here and are buffered
		n.substitute(n.inStrongs, n.lastStrong, n.hasLastStrong)
		// Swap the filled scratch in as the buffer; the old buffer
		// becomes next round's scratch (reset before use).
		n.strongTally, n.inStrongs = n.inStrongs, n.strongTally
		relays, sel := n.core.Advance(n.nv)
		for _, p := range relays {
			out = append(out, sim.BroadcastT(Wire{Kind: wEcho, P: p}))
		}
		if sel.HasCoord {
			n.prevCoord = sel.Coord
			if sel.SelfCoord {
				out = append(out, sim.BroadcastT(Wire{Kind: wOpinion, X: n.xv}))
			}
		} else {
			n.prevCoord = 0
		}

	default: // E — judge strongprefers, adopt coordinator or terminate
		x, count, ok := best(n.strongTally)
		if ok && quorum.AtLeastTwoThirds(count, n.nv) {
			n.decided = true
			n.output = x
			n.decidedRound = round
			return out
		}
		if !ok || quorum.LessThanThird(count, n.nv) {
			if n.prevCoord != 0 {
				if c, got := n.inOpinions[n.prevCoord]; got {
					n.xv = c
					n.coordAdopted++
				}
			}
		}
	}
	return out
}

// absorbOne folds one classified message from the member id, numbered
// from, into the per-round scratch.
func (n *Node) absorbOne(id ids.ID, from int32, w Wire) {
	switch w.Kind {
	case wInit:
		n.core.AbsorbInit(from)
	case wEcho:
		n.core.AbsorbEcho(from, w.P)
	case wOpinion:
		if _, dup := n.inOpinions[id]; !dup {
			n.inOpinions[id] = w.X
		}
	case wInput:
		n.inInputs.Add(w.X, from)
	case wPrefer:
		n.inPrefers.Add(w.X, from)
	case wStrong:
		n.inStrongs.Add(w.X, from)
	}
}

// substitute applies the Algorithm 3 caption rule: every member from
// whom no message of this kind arrived is assumed to have sent the same
// message this node sent in the previous round (if it sent one): the
// members minus the union of the tally's voters all vote for own.
func (n *Node) substitute(tally *quorum.Tally[float64], own float64, hasOwn bool) {
	if !hasOwn || n.opts.NoSubstitution {
		return
	}
	n.scratch.Reset()
	tally.AddSendersTo(&n.scratch)
	tally.Senders(own).AddDiff(&n.senders, &n.scratch)
}

// best returns the value with the highest vote count, ties broken
// toward the smaller value for determinism.
func best(t *quorum.Tally[float64]) (x float64, count int, ok bool) {
	return t.BestFunc(func(a, b float64) bool { return a < b })
}
