// Package parallel implements Algorithm 5 of the paper: EarlyConsensus
// and the ParallelConsensus construction on top of it.
//
// Parallel consensus agrees on a *set* of (pair id, opinion) pairs when
// different correct nodes may start from different — possibly missing —
// input pairs. Each pair id runs its own EarlyConsensus, a variant of
// Algorithm 3 in which unaware nodes are pulled into an instance by the
// first message they see for it, and missing opinions are filled with
// the distinguished value ⊥ ("Bot"):
//
//   - a node that first hears an instance through a message of type m
//     substitutes m(⊥) for every member that sent no type-m message;
//   - a node already participating substitutes its *own* most recently
//     sent message of the counted type for silent members;
//   - messages for instances first heard after phase 1 are discarded;
//   - explicit id:nopreference / id:nostrongpreference messages let
//     participating nodes distinguish "aware but below threshold" from
//     "never heard of it" (no substitution happens for their senders);
//   - terminated instances output (id, x) only when x ≠ ⊥.
//
// The guarantees (Theorem 5) are: validity — a pair input at every
// correct node is output by all; agreement — any pair output by one
// correct node is output by all; termination in O(f) rounds; and pairs
// nobody input are never output (the ⊥ cascade).
//
// A Machine is one node's whole ParallelConsensus execution; it is
// deliberately decoupled from sim.Process so the dynamic total-order
// protocol (Algorithm 6) can run many machines side by side, one per
// round-tagged session. A round is Absorb for each message addressed to
// the machine, then one Advance; a finished machine is given its next
// execution by Reset, which keeps everything it has allocated. Node
// adapts a Machine to sim.Process for standalone use.
package parallel

import (
	"sort"

	"idonly/internal/core/consensus"
	"idonly/internal/core/rotor"
	"idonly/internal/ids"
	"idonly/internal/quorum"
	"idonly/internal/sim"
)

// PairID identifies an input pair. The dynamic total-order protocol
// uses the id of the node that witnessed the event.
type PairID uint64

// Val is an opinion: either a string value or the distinguished ⊥.
type Val struct {
	S   string
	Bot bool
}

// Bot is the missing-opinion value ⊥.
var Bot = Val{Bot: true}

// V wraps a string as a (non-⊥) opinion.
func V(s string) Val { return Val{S: s} }

// Message payloads of EarlyConsensus. They mirror Algorithm 3's with a
// pair-id tag plus the two explicit "no preference" markers.
type (
	// Input is id:input(x), round A.
	Input struct {
		ID PairID
		X  Val
	}
	// Prefer is id:prefer(x), round B.
	Prefer struct {
		ID PairID
		X  Val
	}
	// NoPref is id:nopreference, round B.
	NoPref struct {
		ID PairID
	}
	// StrongPrefer is id:strongprefer(x), round C.
	StrongPrefer struct {
		ID PairID
		X  Val
	}
	// NoStrongPref is id:nostrongpreference, round C.
	NoStrongPref struct {
		ID PairID
	}
	// Opinion is the coordinator's per-instance opinion, round D.
	Opinion struct {
		ID PairID
		X  Val
	}
)

// kind indexes the three substitutable message types M of the paper.
type kind int

const (
	kindInput kind = iota
	kindPrefer
	kindStrong
	numKinds
)

// ownSent records what this node most recently sent of one kind.
type ownSent struct {
	mode int // 0 = nothing ever, 1 = value, 2 = explicit no-preference marker
	val  Val
}

const (
	sentNothing = 0
	sentValue   = 1
	sentMarker  = 2
)

// instance is the per-pair EarlyConsensus state. Instances are recycled
// through the Machine's free list together with their tallies.
type instance struct {
	id           PairID
	xv           Val
	hasInput     bool
	firstSeen    [numKinds]int // machine round of first reception per type (0 = never)
	own          [numKinds]ownSent
	strong       quorum.Tally[Val] // buffered from round D, judged in round E
	coordOp      Val               // first opinion of prevCoord received in round coordOpRound
	coordOpRound int
	decided      bool
	output       Val
	decidedRound int
	arr          *arrivals // this round's arrivals
}

// Machine is one node's ParallelConsensus execution. Rounds are
// machine-relative, starting at 1; the caller must, exactly once per
// round, Absorb the messages addressed to this machine and then Advance
// (Step does both).
type Machine struct {
	self ids.ID
	// idx numbers the ids this execution has seen; every sender set below
	// holds its numbers. Reset starts it afresh, so it grows only with
	// one execution's ids, forged echo candidates included.
	idx      quorum.Index
	filtered bool       // an admission set was given ("with respect to S")
	filter   quorum.Set // that set; unused when !filtered
	core     *rotor.Core

	// senders collects who spoke during the two init rounds; it is then
	// frozen as the membership, and nv is its size.
	senders quorum.Set
	frozen  bool
	nv      int

	insts     map[PairID]*instance
	instFree  []*instance // instances of earlier executions, for ensure
	undecided int         // instances in insts not yet decided
	order     []PairID    // deterministic iteration order (sorted, maintained on insert)
	out       []any       // backs Advance's return value, reused across rounds
	prevCoord ids.ID
	round     int

	// Absorb's verdict on the sender of the previous message: an inbox is
	// sender-sorted by the runner, so one check and one index lookup serve
	// a sender's whole run.
	lastFrom  ids.ID
	lastRound int // round lastFrom was checked for (0 = never)
	lastOK    bool
	lastIdx   int32 // lastFrom's number, when lastOK
}

// NewMachine returns a machine with the given input pairs. members, if
// non-nil, restricts the execution to the given identifier set (the
// dynamic protocol's "with respect to S": messages from other nodes are
// discarded and nv is counted within the set).
func NewMachine(self ids.ID, inputs map[PairID]Val, members []ids.ID) *Machine {
	m := &Machine{insts: make(map[PairID]*instance)}
	m.core = rotor.NewCore(self, &m.idx)
	m.Reset(self, inputs, members)
	return m
}

// Reset starts a new execution on m, which is afterwards
// indistinguishable from NewMachine(self, inputs, members): nothing of
// the previous execution can be observed, only its memory is reused.
// inputs and members are read, not retained.
func (m *Machine) Reset(self ids.ID, inputs map[PairID]Val, members []ids.ID) {
	m.self, m.filtered = self, members != nil
	m.idx.Reset()
	m.core.Reset(self)
	m.filter.Reset()
	for _, id := range members {
		m.filter.Add(m.idx.Of(id))
	}
	m.senders.Reset()
	m.frozen, m.nv = false, 0
	for _, id := range m.order {
		m.instFree = append(m.instFree, m.insts[id])
	}
	clear(m.insts)
	m.order, m.undecided = m.order[:0], 0
	m.prevCoord, m.round, m.lastRound = 0, 0, 0
	for id, x := range inputs { //lint:ordered independent per-pair writes, order-free
		if x.Bot {
			continue // the rules only broadcast non-⊥ inputs
		}
		inst := m.ensure(id)
		inst.xv, inst.hasInput = x, true
	}
}

// Round returns the machine-relative round of the last Advance.
func (m *Machine) Round() int { return m.round }

// Done reports whether every known instance has terminated. A machine
// that knows no instances is vacuously done; the caller decides how
// long to keep listening (the dynamic protocol uses the finality bound,
// the standalone Node waits out the first phase).
func (m *Machine) Done() bool { return m.undecided == 0 }

// EachOutput calls fn for every decided (id, x) pair with x ≠ ⊥, in id
// order.
func (m *Machine) EachOutput(fn func(id PairID, x Val)) {
	for _, id := range m.order {
		if inst := m.insts[id]; inst.decided && !inst.output.Bot {
			fn(id, inst.output)
		}
	}
}

// Outputs returns the decided (id, x) pairs with x ≠ ⊥.
func (m *Machine) Outputs() map[PairID]Val {
	out := make(map[PairID]Val)
	m.EachOutput(func(id PairID, x Val) { out[id] = x })
	return out
}

// OutputRounds returns, for each output pair, the machine round in
// which it was decided.
func (m *Machine) OutputRounds() map[PairID]int {
	out := make(map[PairID]int)
	for id, inst := range m.insts { //lint:ordered map-to-map copy, order-free
		if inst.decided && !inst.output.Bot {
			out[id] = inst.decidedRound
		}
	}
	return out
}

// NV exposes the frozen membership size.
func (m *Machine) NV() int { return m.nv }

func (m *Machine) ensure(id PairID) *instance {
	inst := m.insts[id]
	if inst == nil {
		if k := len(m.instFree); k > 0 {
			inst, m.instFree = m.instFree[k-1], m.instFree[:k-1]
			// The tallies come along as they are: gen 0 has arr reset by
			// its first use, and strong is read (round E) only after round
			// D has swapped it for arr's filled one.
			inst.arr.gen = 0
			*inst = instance{strong: inst.strong, arr: inst.arr}
		} else {
			inst = &instance{arr: new(arrivals)}
		}
		inst.id, inst.xv = id, Bot
		m.insts[id] = inst
		m.undecided++
		i := sort.Search(len(m.order), func(i int) bool { return m.order[i] >= id })
		m.order = append(m.order, 0)
		copy(m.order[i+1:], m.order[i:])
		m.order[i] = id
	}
	return inst
}

// phasePos returns the position within the 5-round phase for a
// machine round past initialization: 0=A .. 4=E.
func phasePos(round int) int {
	return (round - consensus.InitRounds - 1) % consensus.PhaseRounds
}

// phaseNum returns the 1-based phase number for a post-init round.
func phaseNum(round int) int {
	return (round-consensus.InitRounds-1)/consensus.PhaseRounds + 1
}

// arrivals is the per-instance arrival state of one round: per-kind
// tallies plus the responders per kind — members that sent *any*
// message of the kind, including the explicit no-preference markers;
// these are exempt from substitution. Each instance owns one, reset
// lazily (gen stamps the round it was last used in), so steady-state
// rounds allocate none.
type arrivals struct {
	inputs    quorum.Tally[Val]
	prefers   quorum.Tally[Val]
	strongs   quorum.Tally[Val]
	responded [numKinds]quorum.Set
	gen       int
}

// arrivals returns the instance's arrival state for the given round.
func (inst *instance) arrivals(round int) *arrivals {
	a := inst.arr
	if a.gen != round {
		a.gen = round
		a.inputs.Reset()
		a.prefers.Reset()
		a.strongs.Reset()
		for k := range a.responded {
			a.responded[k].Reset()
		}
	}
	return a
}

// Step is one whole round over an inbox: Absorb each message, then
// Advance.
func (m *Machine) Step(inbox []sim.Message) []any {
	for _, msg := range inbox {
		m.Absorb(msg.From, msg.Payload)
	}
	return m.Advance()
}

// Absorb classifies one message of the coming round into the
// per-instance arrival state. Messages of one sender should arrive
// together (the runner sorts inboxes by sender): the admission checks
// then run once per sender, not once per message.
func (m *Machine) Absorb(from ids.ID, payload any) {
	round := m.round + 1
	if from != m.lastFrom || round != m.lastRound {
		m.lastFrom, m.lastRound = from, round
		i, seen := m.idx.Lookup(from)
		switch {
		case m.filtered && !(seen && m.filter.Has(i)):
			m.lastOK = false // outside the recorded S: discarded (Alg. 6 rule)
		case !m.frozen:
			if !seen {
				i = m.idx.Of(from)
			}
			m.senders.Add(i)
			m.lastOK = true
		default:
			m.lastOK = seen && m.senders.Has(i) // else did not count toward nv: discarded (Alg. 3 rule)
		}
		m.lastIdx = i
	}
	if !m.lastOK {
		return
	}
	fi := m.lastIdx
	switch p := payload.(type) {
	case rotor.Init:
		m.core.AbsorbInit(fi)
	case rotor.Echo:
		m.core.AbsorbEcho(fi, p.P)
	case Input:
		if inst := m.admit(p.ID, kindInput, round); inst != nil {
			a := inst.arrivals(round)
			a.inputs.Add(p.X, fi)
			a.responded[kindInput].Add(fi)
		}
	case Prefer:
		if inst := m.admit(p.ID, kindPrefer, round); inst != nil {
			a := inst.arrivals(round)
			a.prefers.Add(p.X, fi)
			a.responded[kindPrefer].Add(fi)
		}
	case NoPref:
		if inst := m.admitKnownOnly(p.ID, kindPrefer, round); inst != nil {
			inst.arrivals(round).responded[kindPrefer].Add(fi)
		}
	case StrongPrefer:
		if inst := m.admit(p.ID, kindStrong, round); inst != nil {
			a := inst.arrivals(round)
			a.strongs.Add(p.X, fi)
			a.responded[kindStrong].Add(fi)
		}
	case NoStrongPref:
		if inst := m.admitKnownOnly(p.ID, kindStrong, round); inst != nil {
			inst.arrivals(round).responded[kindStrong].Add(fi)
		}
	case Opinion:
		// Round E reads only the previous coordinator's opinion, and the
		// first one it sent.
		if inst := m.insts[p.ID]; inst != nil && from == m.prevCoord && inst.coordOpRound != round {
			inst.coordOp, inst.coordOpRound = p.X, round
		}
	}
}

// Advance closes the round whose messages have been absorbed and
// returns the payloads to broadcast (the caller wraps them for
// transport and broadcasts); the slice is valid until the next Advance.
func (m *Machine) Advance() []any {
	m.round++
	round := m.round

	switch {
	case round == 1: // init round 1: rotor init
		m.out = append(m.out[:0], rotor.Init{})
		return m.out
	case round == 2: // init round 2: rotor echoes
		out := m.out[:0]
		for _, p := range m.core.EchoInits() {
			out = append(out, rotor.Echo{P: p})
		}
		m.out = out
		return out
	}

	if !m.frozen {
		m.frozen = true
		m.nv = m.senders.Len()
	}

	out := m.out[:0]
	switch phasePos(round) {
	case 0: // A — broadcast id:input(xv) for pairs with xv ≠ ⊥
		for _, id := range m.order {
			inst := m.insts[id]
			if inst.decided {
				continue
			}
			if !inst.xv.Bot {
				inst.own[kindInput] = ownSent{mode: sentValue, val: inst.xv}
				out = append(out, Input{ID: id, X: inst.xv})
			}
			// A node whose opinion is ⊥ stays silent; its input-kind
			// "most recent" message is unchanged.
		}

	case 1: // B — count inputs; prefer or nopreference
		for _, id := range m.order {
			inst := m.insts[id]
			if inst.decided {
				continue
			}
			a := inst.arrivals(round)
			m.substitute(inst, kindInput, round, &a.inputs, &a.responded[kindInput])
			if x, count, ok := bestVal(&a.inputs); ok && quorum.AtLeastTwoThirds(count, m.nv) {
				inst.own[kindPrefer] = ownSent{mode: sentValue, val: x}
				out = append(out, Prefer{ID: id, X: x})
			} else {
				inst.own[kindPrefer] = ownSent{mode: sentMarker}
				out = append(out, NoPref{ID: id})
			}
		}

	case 2: // C — count prefers; adopt; strongprefer or nostrongpreference
		for _, id := range m.order {
			inst := m.insts[id]
			if inst.decided {
				continue
			}
			a := inst.arrivals(round)
			m.substitute(inst, kindPrefer, round, &a.prefers, &a.responded[kindPrefer])
			x, count, ok := bestVal(&a.prefers)
			if ok && quorum.AtLeastThird(count, m.nv) {
				inst.xv = x
			}
			if ok && quorum.AtLeastTwoThirds(count, m.nv) {
				inst.own[kindStrong] = ownSent{mode: sentValue, val: x}
				out = append(out, StrongPrefer{ID: id, X: x})
			} else {
				inst.own[kindStrong] = ownSent{mode: sentMarker}
				out = append(out, NoStrongPref{ID: id})
			}
		}

	case 3: // D — buffer strongprefers; rotor round; coordinator opinions
		for _, id := range m.order {
			inst := m.insts[id]
			if inst.decided {
				continue
			}
			a := inst.arrivals(round)
			m.substitute(inst, kindStrong, round, &a.strongs, &a.responded[kindStrong])
			// Swap the filled tally in as the round-E buffer; the pool
			// entry takes the instance's previous buffer and resets it
			// before its next use.
			inst.strong, a.strongs = a.strongs, inst.strong
		}
		relays, sel := m.core.Advance(m.nv)
		for _, p := range relays {
			out = append(out, rotor.Echo{P: p})
		}
		if sel.HasCoord {
			m.prevCoord = sel.Coord
			if sel.SelfCoord {
				for _, id := range m.order {
					if inst := m.insts[id]; !inst.decided {
						out = append(out, Opinion{ID: id, X: inst.xv})
					}
				}
			}
		} else {
			m.prevCoord = 0
		}

	case 4: // E — judge strongprefers; adopt coordinator; terminate
		for _, id := range m.order {
			inst := m.insts[id]
			if inst.decided {
				continue
			}
			x, count, ok := bestVal(&inst.strong)
			if ok && quorum.AtLeastTwoThirds(count, m.nv) {
				inst.decided = true
				inst.output = x
				inst.decidedRound = round
				m.undecided--
				continue
			}
			if !ok || quorum.LessThanThird(count, m.nv) {
				if m.prevCoord != 0 && inst.coordOpRound == round {
					inst.xv = inst.coordOp
				}
			}
			inst.strong.Reset()
		}
	}
	m.out = out
	return out
}

// admit locates the instance for a message of the given kind arriving
// this round, creating it when discovery is legal: only during phase 1
// and only at the type's proper arrival round (inputs in round B,
// prefers in round C, strongprefers in round D; the paper counts the
// strongprefer processing in round E — the messages physically arrive
// one round earlier and are buffered). Messages for unknown instances
// outside those windows are discarded, as are all first contacts in
// phase ≥ 2. It returns nil when the message must be dropped.
func (m *Machine) admit(id PairID, k kind, round int) *instance {
	inst, known := m.insts[id]
	if !known {
		if round <= consensus.InitRounds || phaseNum(round) != 1 {
			return nil
		}
		pos := phasePos(round)
		legal := (k == kindInput && pos == 1) ||
			(k == kindPrefer && pos == 2) ||
			(k == kindStrong && pos == 3)
		if !legal {
			return nil
		}
		inst = m.ensure(id)
	}
	if round > consensus.InitRounds && inst.firstSeen[k] == 0 {
		inst.firstSeen[k] = round
	}
	return inst
}

// admitKnownOnly is admit for the no-preference markers, which carry no
// value and never create an instance.
func (m *Machine) admitKnownOnly(id PairID, k kind, round int) *instance {
	inst, known := m.insts[id]
	if !known {
		return nil
	}
	if round > consensus.InitRounds && inst.firstSeen[k] == 0 {
		inst.firstSeen[k] = round
	}
	return inst
}

// substitute fills in votes for members that sent no message of the
// counted kind this round, per the Algorithm 5 caption:
//
//   - if this round is the node's first reception of this type for the
//     instance (it is just joining through these messages, or everyone
//     is counting the type for the first time), missing members count
//     as m(⊥);
//   - otherwise each missing member counts as this node's own most
//     recently sent message of the kind (a no-preference marker
//     contributes no value).
//
// The missing members are the membership minus the responders, one
// bitset difference.
func (m *Machine) substitute(inst *instance, k kind, round int, tally *quorum.Tally[Val], responded *quorum.Set) {
	switch own := inst.own[k]; {
	case inst.firstSeen[k] == 0 || inst.firstSeen[k] == round:
		tally.Senders(Bot).AddDiff(&m.senders, responded)
	case own.mode == sentValue:
		tally.Senders(own.val).AddDiff(&m.senders, responded)
	}
	// A sent marker, or nothing sent, contributes to no value's count.
}

// bestVal returns the opinion with the highest vote count,
// deterministically tie-broken (⊥ last, then lexicographic).
func bestVal(t *quorum.Tally[Val]) (x Val, count int, ok bool) {
	return t.BestFunc(func(a, b Val) bool {
		if a.Bot != b.Bot {
			return !a.Bot
		}
		return a.S < b.S
	})
}

// Node adapts a Machine to sim.Process for static-network use.
type Node struct {
	machine *Machine
	sends   []sim.Send // backs Step's return value, reused across rounds
	decided bool
}

// NewNode returns a standalone parallel-consensus process with the
// given input pairs.
func NewNode(id ids.ID, inputs map[PairID]Val) *Node {
	return &Node{machine: NewMachine(id, inputs, nil)}
}

// ID implements sim.Process.
func (n *Node) ID() ids.ID { return n.machine.self }

// Decided implements sim.Process: all known instances decided and at
// least one full phase has elapsed (so a node with no inputs of its own
// has listened long enough to join anything a correct node started).
func (n *Node) Decided() bool { return n.decided }

// Output implements sim.Process.
func (n *Node) Output() any { return n.machine.Outputs() }

// Outputs returns the decided pairs.
func (n *Node) Outputs() map[PairID]Val { return n.machine.Outputs() }

// Machine exposes the underlying machine (experiments peek at NV etc.).
func (n *Node) Machine() *Machine { return n.machine }

// Step implements sim.Process: the machine absorbs the inbox and
// advances one round, and its payloads go out as broadcasts.
func (n *Node) Step(round int, inbox []sim.Message) []sim.Send {
	payloads := n.machine.Step(inbox)
	if n.machine.round >= consensus.InitRounds+consensus.PhaseRounds && n.machine.Done() {
		n.decided = true
	}
	out := n.sends[:0]
	for _, p := range payloads {
		out = append(out, sim.BroadcastPayload(p))
	}
	n.sends = out
	return out
}
