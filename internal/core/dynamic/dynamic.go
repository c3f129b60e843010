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
// A session is retired — machine and all — the moment it is harvested.
// That is safe by the same clause of Theorem 6 that makes the harvest
// safe: past the bound every correct node's machine for r' has
// terminated, so no correct node sends session-r' traffic any more,
// and whatever still arrives under that tag is Byzantine and was
// already being discarded by the stopped machine. (A session harvested
// with its machine unfinished — HarvestGap, impossible while n > 3f —
// is retired all the same.) A node therefore holds at most 5·|S|/2 + 3
// sessions at any time, however long it runs.
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
package dynamic

import (
	"slices"

	"idonly/internal/core/consensus"
	"idonly/internal/core/parallel"
	"idonly/internal/ids"
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
	start    int // protocol round in which it started
	snapshot int // |S| at the start (finality denominator)
	machine  *parallel.Machine
	stopped  bool          // machine done, no longer stepped
	inbox    []sim.Message // this round's traffic for the machine, reused
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

	members map[ids.ID]bool // S
	peers   []ids.ID        // presents buffered while joining

	// Witness schedule: protocol round -> events witnessed that round;
	// Submit adds to the next round. A leaving/left node witnesses
	// nothing.
	schedule map[int][]string
	pending  []string

	leaveAt int // protocol round at which to announce absent (0 = never)

	// sessions holds the sessions not yet final, in start order. A node
	// starts one per round from activation until it leaves and harvests
	// from the front, so starts are consecutive: session r' sits at index
	// r' − sessions[0].start.
	sessions  []*session
	inboxFree [][]sim.Message // inbox buffers of stopped sessions, for the next ones

	chain      []Event
	finalUpTo  int        // R: all rounds <= R are final
	sends      []sim.Send // backs Step's return value, reused across rounds
	harvestGap bool       // a session was harvested before its machine finished (must never happen under n > 3f)
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
		members:  make(map[ids.ID]bool),
		schedule: cfg.Witness,
		leaveAt:  cfg.LeaveAt,
	}
	if cfg.Founders != nil {
		n.state = stFounder
		for _, id := range cfg.Founders {
			n.members[id] = true
		}
		n.members[n.id] = true
	} else {
		n.state = stJoinAnnounce
		n.members[n.id] = true
	}
	return n
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

// Members returns the node's current S, sorted.
func (n *Node) Members() []ids.ID {
	out := make([]ids.ID, 0, len(n.members))
	for id := range n.members {
		out = append(out, id)
	}
	return ids.SortIDs(out)
}

// HarvestGap reports whether any session had to be harvested before its
// machine terminated — a violation of Theorem 6's finality bound, which
// must never occur while n > 3f holds in every round.
func (n *Node) HarvestGap() bool { return n.harvestGap }

// Submit queues an event to be witnessed in the node's next round.
func (n *Node) Submit(m string) { n.pending = append(n.pending, m) }

// Step implements sim.Process.
func (n *Node) Step(round int, inbox []sim.Message) []sim.Send {
	switch n.state {
	case stJoinAnnounce:
		n.state = stJoinWait
		n.sends = append(n.sends[:0], sim.BroadcastPayload(Present{}))
		return n.sends
	case stJoinWait:
		// Acks are still in flight; remember peers joining alongside us.
		for _, msg := range inbox {
			if _, ok := msg.Payload.(Present); ok {
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
			if a, ok := msg.Payload.(Ack); ok {
				counts[a.R]++
				n.members[msg.From] = true
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
			n.members[p] = true
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
	var ackTo []ids.ID
	var events map[ids.ID]string // I_r: first event per sender tagged r-1

	for _, msg := range inbox {
		switch p := msg.Payload.(type) {
		case Present:
			if n.state == stActive {
				n.members[msg.From] = true
				ackTo = append(ackTo, msg.From)
			}
		case Absent:
			delete(n.members, msg.From)
		case EventMsg:
			if n.state == stActive && p.R == n.r-1 {
				if _, dup := events[msg.From]; !dup {
					if events == nil {
						events = make(map[ids.ID]string)
					}
					events[msg.From] = p.M
				}
			}
		case SessMsg:
			// Traffic for a session this node never started, has stopped or
			// has already retired is dropped here.
			if s := n.session(p.Sess); s != nil && !s.stopped {
				s.inbox = append(s.inbox, sim.Message{From: msg.From, Payload: p.Inner})
			}
		case Ack:
			// stray ack (e.g. duplicate join traffic): ignore
		}
	}

	// Leave announcement.
	if n.state == stActive && n.leaveAt != 0 && n.r >= n.leaveAt {
		n.state = stLeaving
		out = append(out, sim.BroadcastPayload(Absent{}))
	}

	// Acks for joiners.
	for _, u := range ackTo {
		out = append(out, sim.Unicast(u, Ack{R: n.r}))
	}

	// Witness events (line 21-23): schedule plus queued submissions.
	if n.state == stActive {
		for _, m := range n.schedule[n.r] {
			out = append(out, sim.BroadcastPayload(EventMsg{M: m, R: n.r}))
		}
		for _, m := range n.pending {
			out = append(out, sim.BroadcastPayload(EventMsg{M: m, R: n.r}))
		}
		n.pending = nil
	}

	// Step all live session machines with this round's session traffic.
	for _, s := range n.sessions {
		if s.stopped {
			continue
		}
		payloads := s.machine.Step(s.inbox)
		s.inbox = s.inbox[:0]
		for _, p := range payloads {
			out = append(out, sim.BroadcastPayload(SessMsg{Sess: s.start, Inner: p}))
		}
		// A machine may be stopped only once it has listened through the
		// whole first phase (instances can be discovered until its round
		// D) and every known instance has terminated.
		if s.machine.Round() >= consensus.InitRounds+consensus.PhaseRounds && s.machine.Done() {
			s.stopped = true
			n.inboxFree = append(n.inboxFree, s.inbox)
			s.inbox = nil
		}
	}

	// Start session r (line 27) with the events received this round.
	if n.state == stActive {
		var inputs map[parallel.PairID]parallel.Val
		if len(events) > 0 {
			inputs = make(map[parallel.PairID]parallel.Val, len(events))
		}
		for u, m := range events { //lint:ordered independent per-event writes, order-free
			inputs[parallel.PairID(u)] = parallel.V(m)
		}
		snapshot := n.Members()
		mach := parallel.NewMachine(n.id, inputs, snapshot)
		s := &session{start: n.r, snapshot: len(snapshot), machine: mach}
		if k := len(n.inboxFree); k > 0 {
			s.inbox, n.inboxFree = n.inboxFree[k-1], n.inboxFree[:k-1]
		}
		n.sessions = append(n.sessions, s)
		payloads := mach.Step(nil) // machine round 1: session-tagged rotor init
		for _, p := range payloads {
			out = append(out, sim.BroadcastPayload(SessMsg{Sess: n.r, Inner: p}))
		}
	}

	// Advance finality (lines 28-30) and harvest newly final sessions.
	n.advanceFinality()

	// A leaving node disappears once its outstanding sessions are done.
	if n.state == stLeaving {
		done := true
		for _, s := range n.sessions {
			if !s.stopped {
				done = false
				break
			}
		}
		if done {
			n.state = stLeft
		}
	}
	n.sends = out
	return out
}

// session returns the live session started in the given round, or nil.
func (n *Node) session(start int) *session {
	if len(n.sessions) == 0 {
		return nil
	}
	if i := start - n.sessions[0].start; i >= 0 && i < len(n.sessions) {
		return n.sessions[i]
	}
	return nil
}

// advanceFinality extends R while the next round is final, appending
// the freshly final sessions' outputs to the chain in deterministic
// order and retiring them.
func (n *Node) advanceFinality() {
	for len(n.sessions) > 0 {
		s := n.sessions[0]
		next := n.finalUpTo + 1
		if s.start != next {
			return
		}
		// Exact integer check of r − r' > 5|S|/2 + 2.
		if 2*(n.r-next) <= 5*s.snapshot+4 {
			return
		}
		if !s.machine.Done() {
			n.harvestGap = true
		}
		outputs := s.machine.Outputs()
		pairs := make([]parallel.PairID, 0, len(outputs))
		for id := range outputs {
			pairs = append(pairs, id)
		}
		slices.Sort(pairs)
		for _, id := range pairs {
			n.chain = append(n.chain, Event{Session: next, Node: ids.ID(id), M: outputs[id].S})
		}
		n.finalUpTo = next
		last := len(n.sessions) - 1
		copy(n.sessions, n.sessions[1:])
		n.sessions[last] = nil
		n.sessions = n.sessions[:last]
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
