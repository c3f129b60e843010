// Package rotor implements Algorithm 2 of the paper: the
// rotor-coordinator, which cycles through at least f+1 distinct
// coordinators without knowing f and with non-consecutive identifiers.
//
// This is the paper's key technical novelty (§III): classical
// algorithms rotate through nodes 1..f+1, which requires both f and
// consecutive ids. Here every node maintains a candidate set Cv,
// updated with reliable-broadcast-style echo thresholds over nv (the
// number of nodes heard from), and selects Cv[r mod |Cv|] in round r.
// Lemma 7 shows that before any correct node re-selects a coordinator
// (the termination condition), there was a "good round" in which every
// correct node selected the same correct coordinator.
//
// The package exposes two layers:
//
//   - Core: the Cv/Sv state machine (echo absorption, candidate
//     admission, per-round selection). Consensus (Algorithm 3) and
//     parallel consensus (Algorithm 5) embed a Core and drive one rotor
//     round per phase.
//   - Node: the standalone Algorithm 2 process, which additionally
//     broadcasts and accepts coordinator opinions and terminates on
//     re-selection.
package rotor

import (
	"slices"
	"sort"

	"idonly/internal/ids"
	"idonly/internal/quorum"
	"idonly/internal/sim"
)

// Init is the round-1 broadcast announcing willingness to coordinate.
type Init struct{}

// Echo is the echo(p) message vouching that p announced itself.
type Echo struct {
	P ids.ID
}

// Opinion carries the coordinator's current opinion (standalone Node
// use; the consensus algorithms define their own opinion messages).
type Opinion struct {
	X float64
}

// Core is the candidate/selection state machine shared by every
// protocol that embeds a rotor-coordinator. Senders and candidates are
// dense indices of the owner's quorum.Index; every loop that hands ids
// out orders them by id, never by index.
type Core struct {
	self      ids.ID
	idx       *quorum.Index // the owner's; numbers senders and candidates
	inits     quorum.Set    // init senders (round 1)
	echoes    []quorum.Set  // echoes[p]: distinct senders of echo(p), by p's index
	witnessed []int32       // candidates with at least one echo, in id order
	cv        []int32       // candidate coordinators, in id order
	inCv      quorum.Set    // cv as a set
	sv        quorum.Set    // selected coordinators
	selected  []ids.ID      // selection sequence (one per Advance)
	r         int           // next selection round index (starts at 0)

	initScratch  []ids.ID // backs EchoInits' return, valid until the next EchoInits
	relayScratch []ids.ID // backs Advance's relays return; valid until the next Advance
}

// NewCore returns an empty rotor core for the given node, numbering ids
// in idx, which its owner resets with the core.
func NewCore(self ids.ID, idx *quorum.Index) *Core {
	return &Core{self: self, idx: idx}
}

// Reset returns the core to the state NewCore(self, idx) builds, keeping
// the sets' words and the slices' capacity. The owner resets idx.
func (c *Core) Reset(self ids.ID) {
	c.self, c.r = self, 0
	c.inits.Reset()
	for _, p := range c.witnessed {
		c.echoes[p].Reset()
	}
	c.echoes, c.witnessed = c.echoes[:0], c.witnessed[:0]
	c.inCv.Reset()
	c.sv.Reset()
	c.cv, c.selected = c.cv[:0], c.selected[:0]
}

// AbsorbInit records an init broadcast from the sender numbered from.
func (c *Core) AbsorbInit(from int32) { c.inits.Add(from) }

// AbsorbEcho records an echo(p) vouched by the sender numbered from.
func (c *Core) AbsorbEcho(from int32, p ids.ID) {
	pi := c.idx.Of(p)
	if n := int(pi) + 1; n > len(c.echoes) {
		// Room for every id numbered so far, in one step; sets past len
		// were reset before the slice was cut back.
		c.echoes = slices.Grow(c.echoes, c.idx.Len()-len(c.echoes))[:n]
	}
	set := &c.echoes[pi]
	if set.Len() == 0 {
		c.witnessed = c.insertByID(c.witnessed, pi)
	}
	set.Add(from)
}

// insertByID inserts index pi into s, which is kept in id order.
func (c *Core) insertByID(s []int32, pi int32) []int32 {
	p := c.idx.ID(pi)
	i := sort.Search(len(s), func(i int) bool { return c.idx.ID(s[i]) >= p })
	return slices.Insert(s, i, pi)
}

// EchoInits returns the candidate ids to echo in round 2 — one echo(p)
// for every init received — in ascending order. Like Advance's relays,
// the slice is scratch owned by the core, valid until the next
// EchoInits.
func (c *Core) EchoInits() []ids.ID {
	out := c.initScratch[:0]
	c.inits.Each(func(i int32) { out = append(out, c.idx.ID(i)) })
	slices.Sort(out)
	c.initScratch = out
	return out
}

// Selection is the outcome of one rotor round.
type Selection struct {
	Coord      ids.ID // selected coordinator (valid when HasCoord)
	HasCoord   bool   // false only while Cv is still empty
	Reselected bool   // the Algorithm 2 termination condition (p ∈ Sv)
	SelfCoord  bool   // this node is the coordinator of the round
}

// Advance executes the candidate-set maintenance and coordinator
// selection of one rotor round (Algorithm 2 lines 6–24), given the
// current nv. It returns the echo(p) relays to broadcast this round and
// the selection outcome. The relays slice is scratch owned by the core,
// valid until the next Advance — every embedding converts it to sends
// within the same round. When sel.Reselected is true the standalone
// algorithm terminates; embedded uses keep cycling (their host protocol
// has its own termination) and the selection sequence simply wraps
// around Cv.
func (c *Core) Advance(nv int) (relays []ids.ID, sel Selection) {
	// Lines 8–15: move candidates through the nv/3 (relay) and 2nv/3
	// (admit) thresholds, in ascending id order for determinism. The
	// relay check precedes admission within a round, as in the
	// pseudocode, so a node may both relay echo(p) and admit p in the
	// same round.
	relays = c.relayScratch[:0]
	for _, pi := range c.witnessed {
		if c.inCv.Has(pi) {
			continue
		}
		count := c.echoes[pi].Len()
		if quorum.AtLeastThird(count, nv) {
			relays = append(relays, c.idx.ID(pi))
		}
		if quorum.AtLeastTwoThirds(count, nv) {
			c.cv = c.insertByID(c.cv, pi)
			c.inCv.Add(pi)
		}
	}
	c.relayScratch = relays

	// Line 16: select the next coordinator.
	if len(c.cv) == 0 {
		// Cannot happen for n > 3f with all correct nodes initialized
		// (Lemma 1 puts every correct id in Cv before the first
		// selection); reachable only in resiliency-violation
		// experiments, where the round simply has no coordinator.
		c.r++
		return relays, Selection{}
	}
	pi := c.cv[c.r%len(c.cv)]
	p := c.idx.ID(pi)
	sel = Selection{Coord: p, HasCoord: true, SelfCoord: p == c.self}
	if !c.sv.Add(pi) {
		sel.Reselected = true
	}
	c.selected = append(c.selected, p)
	c.r++
	return relays, sel
}

// Candidates returns a copy of Cv in ascending order.
func (c *Core) Candidates() []ids.ID {
	out := make([]ids.ID, len(c.cv))
	for i, pi := range c.cv {
		out[i] = c.idx.ID(pi)
	}
	return out
}

// Selected returns the selection sequence so far.
func (c *Core) Selected() []ids.ID {
	out := make([]ids.ID, len(c.selected))
	copy(out, c.selected)
	return out
}

// AcceptedOpinion records one accepted coordinator opinion: in round
// Round the node accepted opinion X from coordinator Coord (who was
// selected in the previous round).
type AcceptedOpinion struct {
	Round int
	Coord ids.ID
	X     float64
}

// Node is the standalone Algorithm 2 process: it selects coordinators,
// broadcasts its own opinion when selected, accepts the previous
// coordinator's opinion, and terminates upon re-selecting a
// coordinator.
type Node struct {
	id        ids.ID
	opinion   float64
	core      *Core
	idx       quorum.Index // numbers every id this node has seen
	senders   quorum.Set   // nv bookkeeping
	prevCoord ids.ID       // coordinator selected in the previous round (0 = none)
	accepted  []AcceptedOpinion
	opScratch map[ids.ID]float64 // per-round opinion scratch, cleared each Step
	sends     []sim.Send         // backs Step's return value, reused across rounds
	done      bool
	doneRound int
}

// New returns a rotor-coordinator node whose own opinion is x.
func New(id ids.ID, x float64) *Node {
	n := &Node{id: id, opinion: x, opScratch: make(map[ids.ID]float64)}
	n.core = NewCore(id, &n.idx)
	return n
}

// ID implements sim.Process.
func (n *Node) ID() ids.ID { return n.id }

// Decided implements sim.Process.
func (n *Node) Decided() bool { return n.done }

// Output implements sim.Process; it returns the accepted opinions.
func (n *Node) Output() any { return n.Accepted() }

// Accepted returns the coordinator opinions accepted so far.
func (n *Node) Accepted() []AcceptedOpinion {
	out := make([]AcceptedOpinion, len(n.accepted))
	copy(out, n.accepted)
	return out
}

// DoneRound returns the round in which the node terminated (0 if not).
func (n *Node) DoneRound() int { return n.doneRound }

// Selected exposes the selection sequence for the experiments.
func (n *Node) Selected() []ids.ID { return n.core.Selected() }

// Candidates exposes Cv for the experiments.
func (n *Node) Candidates() []ids.ID { return n.core.Candidates() }

// Step implements sim.Process, one Algorithm 2 round per call.
func (n *Node) Step(round int, inbox []sim.Message) []sim.Send {
	// Absorb traffic: every sender counts toward nv; echoes and inits
	// feed the core; opinions are matched against the coordinator
	// selected in the previous round.
	// Inboxes are sender-sorted, so a sender is numbered once per run.
	opinions := n.opScratch
	clear(opinions)
	from, last := int32(-1), ids.ID(0)
	for _, msg := range inbox {
		if from < 0 || msg.From != last {
			from, last = n.idx.Of(msg.From), msg.From
			n.senders.Add(from)
		}
		switch p := msg.Payload.(type) {
		case Init:
			n.core.AbsorbInit(from)
		case Echo:
			n.core.AbsorbEcho(from, p.P)
		case Opinion:
			if _, dup := opinions[msg.From]; !dup {
				opinions[msg.From] = p.X
			}
		}
	}

	out := n.sends[:0]
	switch round {
	case 1: // Line 3: broadcast init.
		n.sends = append(out, sim.BroadcastPayload(Init{}))
		return n.sends
	case 2: // Line 4: broadcast echo(p) for every init received.
		for _, p := range n.core.EchoInits() {
			out = append(out, sim.BroadcastPayload(Echo{P: p}))
		}
		n.sends = out
		return out
	}

	// Lines 5–30, one iteration per round.
	nv := n.senders.Len()
	relays, sel := n.core.Advance(nv)

	// Lines 17–20: accept the opinion of the previously selected
	// coordinator if it arrived this round.
	if n.prevCoord != 0 {
		if x, ok := opinions[n.prevCoord]; ok {
			n.accepted = append(n.accepted, AcceptedOpinion{Round: round, Coord: n.prevCoord, X: x})
		}
	}

	// Lines 21–23: terminate on re-selection, without broadcasting.
	if sel.Reselected {
		n.done = true
		n.doneRound = round
		return nil
	}

	for _, p := range relays {
		out = append(out, sim.BroadcastPayload(Echo{P: p}))
	}
	if sel.HasCoord {
		n.prevCoord = sel.Coord
		if sel.SelfCoord {
			// Lines 25–28: the coordinator broadcasts its opinion.
			out = append(out, sim.BroadcastPayload(Opinion{X: n.opinion}))
		}
	} else {
		n.prevCoord = 0
	}
	n.sends = out
	return out
}
