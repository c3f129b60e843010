// Package sim is a deterministic, lock-step synchronous message-passing
// simulator for the id-only model of the paper.
//
// The model (paper §IV): computation proceeds in rounds. In each round a
// node receives the messages sent to it in the previous round, computes,
// and sends messages to be consumed in the next round. A node can
// broadcast to all nodes (including ones it has never heard from) or
// unicast to a node it already heard from. The sender identifier is
// attached by the network — a Byzantine node cannot forge its own id on
// a direct message, but it can lie arbitrarily inside payloads (e.g.
// claim echoes from non-existent nodes). Duplicate messages from the
// same node within one round are discarded.
//
// The simulator is single-goroutine per round-step and fully
// deterministic: participants are always iterated in increasing id
// order and all randomness comes from seeded ids.Rand generators owned
// by the caller.
//
// Delivery runs on a flat message plane: all per-node runner state
// lives in one node table sorted by id, indexed through a slot index,
// so broadcast fan-out, the destination-present check and per-round
// iteration are O(1) array operations. Delivery buffers are pooled and
// reused across rounds, and a round's cost follows its sends, not its
// deliveries: a broadcast is one append to the round's broadcast log,
// shared as the inbox of every recipient with nothing else to receive,
// so an inbox may be that one shared slice (plane.go); a unicast goes
// to its recipient's lane through one round-wide bucket. Duplicates are
// dropped where the sort puts them: once a sender has stepped, its
// sends are sorted, and a repeat lies next to what it repeats. Inboxes
// are ordered by (sender, payload): a wire union compares its fields
// (WireMsg), and only boxed payloads are ordered by their rendered
// sort keys.
//
// There is one round loop, the generic core in generic.go. This file
// holds the model's vocabulary — messages, processes, the adversary,
// metrics — and Runner, the core instantiated over boxed payloads: any
// comparable payload type that renders its own sort key under the one
// key contract (sortkey.go) travels. NewTypedRunner instantiates the
// same core over a protocol's concrete wire type. The schedule —
// traces, metrics, decided rounds — is bit-identical either way;
// golden_test.go pins it per protocol.
package sim

import (
	"bytes"
	"fmt"

	"idonly/internal/ids"
)

// Broadcast is the destination address meaning "all participants".
const Broadcast ids.ID = 0

// Message is a message as received: the network has stamped the true
// sender identifier. Payload values must be comparable Go values
// (structs without slices/maps), because the runner drops a sender's
// duplicates by value equality and the protocols' witness sets use them
// as map keys, and must render
// a sort key (SortKeyer), which orders them in an inbox.
type Message = MsgT[any]

// Send is a message as submitted by a process: a destination and a
// payload. The runner stamps the sender.
type Send = SendT[any]

// BroadcastPayload is a convenience constructor for a broadcast Send.
func BroadcastPayload(p any) Send { return Send{To: Broadcast, Payload: p} }

// Unicast is a convenience constructor for a direct Send.
func Unicast(to ids.ID, p any) Send { return Send{To: to, Payload: p} }

// Process is a correct protocol participant.
//
// Step is called exactly once per round with the (deduplicated) inbox
// of messages sent to the process in the previous round; round numbers
// start at 1 and the round-1 inbox is empty. Step returns the messages
// to send in this round. After Decided reports true the runner stops
// calling Step and the node is silent (the paper's protocols terminate
// and stop sending; their substitution rules keep the remaining nodes'
// thresholds satisfiable).
//
// The inbox slice is owned by the runner, reused across rounds and
// often shared — the round's broadcast log is the very slice every
// recipient with no unicasts gets — so Step must not retain it (or
// subslices of it) past the call, and must not modify it: one write
// would show in every peer's inbox. Payload values may be kept — they
// are immutable by convention.
//
// Symmetrically, the returned send slice is owned by the process: the
// runner consumes it before the process's next Step, so a process may
// back it with scratch it reuses across rounds (every protocol in this
// repository does).
type Process interface {
	ID() ids.ID
	Step(round int, inbox []Message) []Send
	Decided() bool
	Output() any
}

// Leaver is an optional interface for dynamic-network processes: when
// Left reports true after a Step, the runner removes the node from the
// system at the end of the round (it can still deliver the messages it
// produced in that final Step).
type Leaver interface {
	Left() bool
}

// Adversary drives all faulty nodes. Each round the runner calls Step
// once per faulty node, with that node's inbox, and delivers whatever
// Sends it returns (stamped with the faulty node's real id — identity
// forging on direct messages is impossible in the model). An adversary
// may equivocate by unicasting different payloads to different nodes,
// stay silent, replay, or flood. Like Process.Step, it must not retain
// or modify the inbox slice.
type Adversary interface {
	Step(node ids.ID, round int, inbox []Message) []Send
}

// Blind is the refinement of Adversary for strategies whose Step never
// reads its inbox: forgers and equivocators that act on the round
// number alone, and silence. It is a property of the strategy's type,
// declared by the marker method, not an option. The runner keeps no
// inbox for the faulty slots of a blind adversary — a delivery to one
// is counted and dropped, and no boxed copy of the round's broadcasts
// is made for them — and hands every Step a nil inbox. A nil adversary
// (no faulty slots) is treated as blind.
type Blind interface {
	Adversary
	Blind()
}

// Metrics accumulates cost measures of a run.
type Metrics struct {
	Rounds            int            // rounds executed
	MessagesDelivered int64          // unicast-equivalent deliveries (a broadcast to k nodes counts k)
	MessagesDropped   int64          // dropped as within-round duplicates
	ByRound           []int64        // deliveries per round (index round-1)
	DecidedRound      map[ids.ID]int // first round in which each correct node reported Decided

	// InboxGrows counts growths of the pooled delivery buffers — each
	// append that grew the broadcast log, and each round whose lane
	// traffic (unicasts, and the broadcasts of sources that already
	// reached some slot) outgrew the lanes' array — the
	// allocation-pressure gauge of the flat message plane. After the
	// warm-up rounds of a steady-state run it stops increasing. It is deterministic (same schedule, same growth), but
	// it describes the allocator, not the protocol; trace digests and
	// canonical reports exclude it.
	InboxGrows int64

	// Churn gauges. Joins counts nodes (correct or faulty) that entered
	// the system after round 0; Leaves counts nodes removed mid-run
	// (graceful Leaver departures and ScheduleFaultyLeave). PeakNodes and
	// MinNodes track the membership extremes observed at round
	// boundaries, including the initial membership. All four are
	// deterministic: membership changes are part of the schedule.
	Joins     int
	Leaves    int
	PeakNodes int
	MinNodes  int
}

// Observer receives a copy of every round's traffic; used by the trace
// tool. From/sends are the post-stamping values.
type Observer func(round int, from ids.ID, sends []Send)

// Config configures a Runner.
type Config struct {
	MaxRounds          int      // hard stop; 0 means DefaultMaxRounds
	StopWhenAllDecided bool     // stop as soon as every correct node decided
	Observer           Observer // optional traffic observer
}

// DefaultMaxRounds bounds runaway protocols in tests and experiments.
const DefaultMaxRounds = 10_000

// boxedProc presents a Process as a ProcessT[any]. Message is MsgT[any]
// and Send is SendT[any], so StepTyped is Step under its other name:
// inbox and send slices pass through untouched. Left forwards the
// optional Leaver, which the core discovers by type assertion.
type boxedProc struct{ Process }

func (b boxedProc) StepTyped(round int, inbox []Message) []Send { return b.Step(round, inbox) }

func (b boxedProc) Left() bool {
	l, ok := b.Process.(Leaver)
	return ok && l.Left()
}

// boxedCodec is the identity: the wire value of a boxed payload is the
// box itself.
var boxedCodec = Codec[any]{
	Wrap:   func(p any) (any, bool) { return p, true },
	Unwrap: func(m any) any { return m },
}

// AppendKey appends a boxed payload's sort key (sortkey.go). A nil
// payload — what a union's zero kind unwraps to — renders no key, so it
// sorts first, as the zero kind compares. Any other payload without a
// key is outside the contract and panics, naming its type, as a typed
// runner does for a payload outside its union.
func AppendKey(dst []byte, payload any) []byte {
	if payload == nil {
		return dst
	}
	sk, ok := payload.(SortKeyer)
	if !ok {
		panic(fmt.Sprintf("sim: payload %T has no sort key", payload))
	}
	return sk.AppendSortKey(dst)
}

// keyOrder orders boxed payloads by their rendered sort keys, in
// scratch it reuses: the boxed plane renders two keys per comparison
// and keeps none. Comparisons are few: only payloads of one sender in
// one inbox meet.
type keyOrder struct{ a, b []byte }

func (k *keyOrder) compare(x, y any) int {
	k.a, k.b = AppendKey(k.a[:0], x), AppendKey(k.b[:0], y)
	return bytes.Compare(k.a, k.b)
}

// Runner executes a synchronous round-based system over boxed
// payloads: the runner core (generic.go) with M = any, so it carries
// every payload type, wire union or not.
type Runner struct {
	*TypedRunner[boxedProc, any]
}

// NewRunner creates a runner over the given correct processes, faulty
// node ids and the adversary controlling them. adv may be nil when
// faulty is empty. procs may be a slice of any Process type — a
// protocol's []*Node goes in as it is — since each is boxed here.
func NewRunner[P Process](cfg Config, procs []P, faulty []ids.ID, adv Adversary) *Runner {
	boxed := make([]boxedProc, len(procs))
	for i, p := range procs {
		boxed[i] = boxedProc{p}
	}
	return &Runner{newRunner(cfg, boxed, faulty, adv, boxedCodec, new(keyOrder).compare)}
}

// ScheduleJoin arranges for a correct process to join the system at the
// start of the given round (its first Step is that round).
func (r *Runner) ScheduleJoin(round int, p Process) {
	r.TypedRunner.ScheduleJoin(round, boxedProc{p})
}
