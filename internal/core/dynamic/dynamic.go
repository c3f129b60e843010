// Package dynamic implements Algorithm 6 of the paper: total ordering
// of events in a dynamic network, where participants may join and
// leave at any round subject to n > 3f.
//
// Every round r, every participant starts a fresh parallel-consensus
// session tagged r whose input pairs are the events (u, m) it received
// tagged r−1, executed "with respect to S" — the participant set
// recorded when the session starts; messages from outside the snapshot
// are discarded. A round r' is *final* once r − r' > 5·|S^{r'}|/2 + 2
// (five rounds per phase, two initialization rounds, and at most
// |S|/2 > f phases — Theorem 6), at which point the session's outputs
// can no longer change anywhere and are appended to the chain in
// (session, pair id) order. The chain satisfies chain-prefix (any two
// correct chains are prefixes of one another) and chain-growth.
//
// A session goes start → stop → harvest. It starts on a
// parallel.Machine taken from the node's free list (Machine.Reset; a
// new one only when the list is empty). The node keeps one set of books
// for its life: a quorum.Index that numbers each id once, when it first
// enters a snapshot, and a read-only snapshot of S over those numbers,
// rebuilt only when S changes and shared by every session started under
// it. Each round the node looks each sender up once per run of its
// inbox, demuxes every session message with that number straight into
// its session's machine (Absorb), and then advances every live machine
// once. Nodes speak Wire (wire.go), whose session kind carries the
// machine's parallel.Wire unboxed; Step, the boxed form, is derived
// through the union's codec.
// A machine stops once it has listened through the first phase and
// every instance it knows has terminated: a terminated instance's
// output can never change, and no instance can be discovered after
// phase 1, so the outputs are captured into the session and the
// machine goes back to the free list, rounds before the harvest. Past
// the finality bound the session is harvested
// — its captured outputs are appended to the chain — and retired. That
// is safe by the same clause of Theorem 6 that makes the harvest safe:
// past the bound every correct node's machine for r' has terminated,
// so no correct node sends session-r' traffic any more, and whatever
// still arrives under that tag is Byzantine and was already being
// discarded for the stopped session. (A session harvested with its
// machine unfinished — HarvestGap, impossible while n > 3f — gives up
// its machine there.) A node therefore holds at most 5·|S|/2 + 3
// sessions at any time, however long it runs, and allocates machines
// only for those of them that have not stopped.
//
// Joining follows the present/ack protocol of the pseudocode: the
// joiner broadcasts "present", members reply (ack, r), and the joiner
// adopts the majority round plus one. Two clarifications the paper
// leaves implicit are implemented and documented here: (1) a joiner
// also records "present" broadcasts from peers joining in the same
// round, so that concurrent joiners appear in each other's S exactly
// as they appear in the members'; (2) founding nodes are bootstrapped
// with the initial participant set instead of running the join
// protocol against an empty system.
//
// Leaving: the node broadcasts "absent", stops witnessing events and
// starting sessions, keeps participating in its outstanding sessions
// until they terminate, and then disappears (sim.Leaver).
//
// The order of one sender's messages within a round carries no
// information: a round's membership changes apply once the whole inbox
// is read, so a sender that says both "present" and "absent" in one
// round is treated as present (and acked), and of one sender's events
// tagged r−1 the session's input is the one with the smallest sort
// key. Any order of a sender's run gives the same members, acks,
// inputs and chain.
package dynamic

import (
	"slices"

	"idonly/internal/core/consensus"
	"idonly/internal/core/parallel"
	"idonly/internal/ids"
	"idonly/internal/quorum"
	"idonly/internal/sim"
)

// Present is the join announcement.
type Present struct{}

// Ack answers a Present with the current protocol round.
type Ack struct {
	R int
}

// Absent is the leave announcement.
type Absent struct{}

// EventMsg announces a witnessed event tagged with the round it was
// witnessed in.
type EventMsg struct {
	M string
	R int
}

// SessMsg wraps a parallel-consensus payload with its session tag (the
// round in which the session started), so any number of sessions can
// share the wire.
type SessMsg struct {
	Sess  int
	Inner any
}

// Event is one ordered chain entry: in session Session, the pair
// (Node, M) was agreed.
type Event struct {
	Session int
	Node    ids.ID
	M       string
}

// session is one parallel-consensus session that is not yet final.
type session struct {
	start   int               // protocol round in which it started
	members *quorum.Set       // S at the start, shared; its size is the finality denominator
	machine *parallel.Machine // nil once stopped
	outputs []Event           // captured when the machine stopped, in pair order
}

// joining states
const (
	stFounder = iota
	stJoinAnnounce
	stJoinWait
	stJoinCollect
	stActive
	stLeaving
	stLeft
)

// Node is one correct Algorithm 6 participant.
type Node struct {
	id    ids.ID
	state int
	r     int // protocol round (tracks the global round once synced)

	members []ids.ID // S, sorted
	peers   []ids.ID // presents buffered while joining

	// idx numbers every id that has ever been in a snapshot, once for the
	// node's life. snap is S over those numbers: read-only, shared by
	// every session started under it, and replaced (never changed) when S
	// changes; nil until the next session start rebuilds it.
	idx  quorum.Index
	snap *quorum.Set

	// Witness schedule: protocol round -> events witnessed that round.
	// A leaving/left node witnesses nothing.
	schedule map[int][]string

	leaveAt int // protocol round at which to announce absent (0 = never)

	// sessions holds the sessions not yet final, in start order. A node
	// starts one per round from activation until it leaves and harvests
	// from the front, so starts are consecutive: session r' sits at index
	// r' − sessions[0].start.
	sessions []session
	free     []*parallel.Machine              // machines of stopped sessions, for the next ones
	inputs   map[parallel.PairID]parallel.Val // I_r of the session being started, cleared each round

	chain      []Event
	finalUpTo  int                 // R: all rounds <= R are final
	sends      []sim.SendT[Wire]   // backs StepTyped's return value, reused across rounds
	boxed      sim.BoxedStep[Wire] // Step's scratch
	harvestGap bool                // a session was harvested before its machine finished (must never happen under n > 3f)
}

// Config constructs a Node.
type Config struct {
	ID ids.ID
	// Founders is the initial participant set (including the node
	// itself and any faulty founders); nil means the node joins via the
	// present/ack protocol.
	Founders []ids.ID
	// Witness maps protocol rounds to events this node witnesses.
	Witness map[int][]string
	// LeaveAt is the protocol round at which the node announces
	// departure (0 = stays forever).
	LeaveAt int
}

// New returns a dynamic-network node.
func New(cfg Config) *Node {
	n := &Node{
		id:       cfg.ID,
		state:    stJoinAnnounce,
		schedule: cfg.Witness,
		leaveAt:  cfg.LeaveAt,
		inputs:   make(map[parallel.PairID]parallel.Val),
	}
	if cfg.Founders != nil {
		n.state = stFounder
		for _, id := range cfg.Founders {
			n.addMember(id)
		}
	}
	n.addMember(n.id)
	return n
}

// addMember inserts id into S.
func (n *Node) addMember(id ids.ID) {
	if i, found := slices.BinarySearch(n.members, id); !found {
		n.members = slices.Insert(n.members, i, id)
		n.snap = nil
	}
}

// ID implements sim.Process.
func (n *Node) ID() ids.ID { return n.id }

// Decided implements sim.Process; the ordering service never decides —
// it runs until the simulation stops or the node leaves.
func (n *Node) Decided() bool { return false }

// Left implements sim.Leaver.
func (n *Node) Left() bool { return n.state == stLeft }

// Output implements sim.Process.
func (n *Node) Output() any { return n.Chain() }

// Chain returns the node's current totally ordered event chain.
func (n *Node) Chain() []Event {
	out := make([]Event, len(n.chain))
	copy(out, n.chain)
	return out
}

// FinalRound returns R, the largest round such that every round up to R
// is final.
func (n *Node) FinalRound() int { return n.finalUpTo }

// Round returns the node's protocol round.
func (n *Node) Round() int { return n.r }

// ChainLen returns the length of the chain without copying it.
func (n *Node) ChainLen() int { return len(n.chain) }

// Members returns the node's current S, sorted.
func (n *Node) Members() []ids.ID { return slices.Clone(n.members) }

// HarvestGap reports whether any session had to be harvested before its
// machine terminated — a violation of Theorem 6's finality bound, which
// must never occur while n > 3f holds in every round.
func (n *Node) HarvestGap() bool { return n.harvestGap }

// Step implements sim.Process through the union's codec.
func (n *Node) Step(round int, inbox []sim.Message) []sim.Send {
	return n.boxed.Step(n, codec, round, inbox)
}

// StepTyped implements sim.ProcessT.
func (n *Node) StepTyped(round int, inbox []sim.MsgT[Wire]) []sim.SendT[Wire] {
	switch n.state {
	case stJoinAnnounce:
		n.state = stJoinWait
		n.sends = append(n.sends[:0], sim.BroadcastT(Wire{Kind: wPresent}))
		return n.sends
	case stJoinWait:
		// Acks are still in flight; remember peers joining alongside us.
		for _, msg := range inbox {
			if msg.Payload.Kind == wPresent {
				n.peers = append(n.peers, msg.From)
			}
		}
		n.state = stJoinCollect
		return nil
	case stJoinCollect:
		// Adopt the majority round from the acks; r++ below brings us in
		// sync with the members.
		counts := make(map[int]int)
		for _, msg := range inbox {
			if a := msg.Payload; a.Kind == wAck {
				counts[a.R]++
				n.addMember(msg.From)
			}
		}
		bestR, bestC := 0, 0
		for rr, c := range counts { //lint:ordered max tie-broken toward the smallest round: a total order
			if c > bestC || (c == bestC && rr < bestR) {
				bestR, bestC = rr, c
			}
		}
		if bestC == 0 {
			// Nobody answered: the node is alone; start at the global
			// round so late tests still line up.
			bestR = round - 1
		}
		n.r = bestR
		n.finalUpTo = bestR // the chain of a joiner starts at its join round
		for _, p := range n.peers {
			n.addMember(p)
		}
		n.peers = nil
		n.state = stActive
	case stLeft:
		return nil
	case stFounder:
		n.state = stActive
	}

	// ---- main loop body (Algorithm 6 lines 7–31), one round ----
	n.r++

	out := n.sends[:0]
	var ackTo, gone []ids.ID
	clear(n.inputs) // I_r: one event per sender tagged r-1

	// Session traffic is almost all of an inbox: it takes the first
	// branch, and its session is found by offset from the oldest live
	// one (sessions neither start nor retire while the inbox is read).
	// Each sender is looked up once per run of its messages, for every
	// session; one the node never numbered is in no snapshot.
	first := 0
	if len(n.sessions) > 0 {
		first = n.sessions[0].start
	}
	var fi int32
	var known bool
	for i := range inbox {
		msg := &inbox[i]
		p := &msg.Payload
		if i == 0 || msg.From != inbox[i-1].From {
			fi, known = n.idx.Lookup(msg.From)
		}
		if p.Kind == wSess || p.Kind == wNoise {
			// Traffic for a session this node never started, has stopped or
			// has already retired is dropped here. Noise carries the zero
			// parallel.Wire: the machine admits its sender and nothing else.
			if k := p.R - first; known && k >= 0 && k < len(n.sessions) {
				if m := n.sessions[k].machine; m != nil {
					m.Absorb(msg.From, fi, p.in())
				}
			}
			continue
		}
		switch p.Kind {
		case wPresent:
			if n.state == stActive {
				ackTo = append(ackTo, msg.From)
			}
		case wAbsent:
			gone = append(gone, msg.From)
		case wEvent:
			if n.state == stActive && p.R == n.r-1 {
				if v, dup := n.inputs[parallel.PairID(msg.From)]; !dup || sim.CompareString(p.S, v.S) < 0 {
					n.inputs[parallel.PairID(msg.From)] = parallel.V(p.S)
				}
			}
		case wAck:
			// stray ack (e.g. duplicate join traffic): ignore
		}
	}

	// Membership changes once the whole inbox is read, leaves first: a
	// sender that says both Present and Absent in one round is present.
	for _, u := range gone {
		if i, found := slices.BinarySearch(n.members, u); found {
			n.members = slices.Delete(n.members, i, i+1)
			n.snap = nil
		}
	}
	for _, u := range ackTo {
		n.addMember(u)
	}

	// Leave announcement.
	if n.state == stActive && n.leaveAt != 0 && n.r >= n.leaveAt {
		n.state = stLeaving
		out = append(out, sim.BroadcastT(Wire{Kind: wAbsent}))
	}

	// Acks for joiners.
	for _, u := range ackTo {
		out = append(out, sim.UnicastT(u, Wire{Kind: wAck, R: n.r}))
	}

	// Witness events (line 21-23), from the schedule.
	if n.state == stActive {
		for _, m := range n.schedule[n.r] {
			out = append(out, sim.BroadcastT(Wire{Kind: wEvent, R: n.r, S: m}))
		}
	}

	// Advance all live session machines over the traffic they absorbed.
	for i := range n.sessions {
		s := &n.sessions[i]
		if s.machine == nil {
			continue
		}
		for _, p := range s.machine.Advance() {
			out = append(out, sim.BroadcastT(sess(s.start, p)))
		}
		// A machine may be stopped only once it has listened through the
		// whole first phase (instances can be discovered until its round
		// D) and every known instance has terminated.
		if s.machine.Round() >= consensus.InitRounds+consensus.PhaseRounds && s.machine.Done() {
			n.release(s)
		}
	}

	// Start session r (line 27) with the events received this round.
	if n.state == stActive {
		if n.snap == nil {
			n.snap = new(quorum.Set)
			for _, id := range n.members {
				n.snap.Add(n.idx.Of(id))
			}
		}
		var mach *parallel.Machine
		if k := len(n.free); k > 0 {
			mach, n.free = n.free[k-1], n.free[:k-1]
			mach.Reset(n.id, n.inputs, n.snap)
		} else {
			mach = parallel.NewMachine(n.id, n.inputs, n.snap)
		}
		n.sessions = append(n.sessions, session{start: n.r, members: n.snap, machine: mach})
		for _, p := range mach.Advance() { // machine round 1: session-tagged rotor init
			out = append(out, sim.BroadcastT(sess(n.r, p)))
		}
	}

	// Advance finality (lines 28-30) and harvest newly final sessions.
	n.advanceFinality()

	// A leaving node disappears once its outstanding sessions are done.
	if n.state == stLeaving {
		if !slices.ContainsFunc(n.sessions, func(s session) bool { return s.machine != nil }) {
			n.state = stLeft
		}
	}
	n.sends = out
	return out
}

// release captures the outputs of s's machine, in pair order, and hands
// the machine to the free list.
func (n *Node) release(s *session) {
	s.machine.EachOutput(func(id parallel.PairID, x parallel.Val) {
		s.outputs = append(s.outputs, Event{Session: s.start, Node: ids.ID(id), M: x.S})
	})
	n.free = append(n.free, s.machine)
	s.machine = nil
}

// advanceFinality extends R while the next round is final, appending
// the freshly final sessions' outputs to the chain in deterministic
// order and retiring them.
func (n *Node) advanceFinality() {
	for len(n.sessions) > 0 {
		s := &n.sessions[0]
		next := n.finalUpTo + 1
		if s.start != next {
			return
		}
		// Exact integer check of r − r' > 5|S|/2 + 2.
		if 2*(n.r-next) <= 5*s.members.Len()+4 {
			return
		}
		if s.machine != nil { // not stopped yet: a gap if an instance is still undecided
			n.harvestGap = n.harvestGap || !s.machine.Done()
			n.release(s)
		}
		n.chain = append(n.chain, s.outputs...)
		n.finalUpTo = next
		n.sessions = slices.Delete(n.sessions, 0, 1)
	}
}

// PrefixViolations counts node pairs whose chains are not prefixes of
// one another, restricted to the sessions both cover so that joiners
// (whose chains start at their join round) compare fairly. Zero is the
// chain-prefix guarantee of Theorem 6; the experiments and the scenario
// engine both use this as the agreement checker.
func PrefixViolations(nodes []*Node) int {
	violations := 0
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			a, b := nodes[i].chain, nodes[j].chain
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			// Align on the later starting session; chains are in session
			// order, so that skips a prefix of the earlier one.
			start := max(a[0].Session, b[0].Session)
			for len(a) > 0 && a[0].Session < start {
				a = a[1:]
			}
			for len(b) > 0 && b[0].Session < start {
				b = b[1:]
			}
			for k := 0; k < min(len(a), len(b)); k++ {
				if a[k] != b[k] {
					violations++
					break
				}
			}
		}
	}
	return violations
}
