// The runner core: the one implementation of a round, generic over the
// concrete process and message types.
//
// TypedRunner is instantiated with a process type P and a comparable
// wire type M, and everything a round does — buffer flip, inbox
// assembly, adversary and process steps, observer, delivery into the
// broadcast log and the exception lanes, the close of each sender's
// sends that drops its duplicates (plane.go), decided bookkeeping,
// membership churn — exists here and nowhere else. Two kinds of
// instantiation share it:
//
//   - NewTypedRunner, over a protocol's closed wire union (a small
//     value struct) and its concrete node type: the compiler stencils
//     the delivery plane and messages travel as []MsgT[M] with no
//     `any` box.
//   - NewRunner (sim.go), over boxed payloads (M = any) and an adapter
//     that presents a Process as a ProcessT[any]: any payload type
//     with a sort key, with an identity codec.
//
// What an instantiation supplies besides its types is a Codec — how a
// wire value crosses to and from the boxed form the Adversary and
// Observer interfaces speak — and a comparison, the order of its
// payloads in an inbox: the union's Compare on the typed plane, which
// renders no key, and rendered sort keys on the boxed one (sortkey.go).
// A blind adversary (Blind) is handed no inbox, so its faulty slots
// keep none and nothing is unwrapped for them; a reading one is handed
// its slot's typed inbox boxed at the edge. Delivery is routed by
// destination: a broadcast is one log append whatever the recipient
// count, so an inbox may be the round's shared log; a unicast is one
// append to the round's bucket. Node bookkeeping lives in
// struct-of-arrays (ids, processes, faulty and decided flags, lanes,
// in parallel slices a round streams through), sorted by id and
// indexed through a quorum.Index that numbers the ids in slot order;
// joins and leaves shift every column in step.
//
// Under the one key contract (sortkey.go) value equality and key
// equality coincide, across types too, and a union's Compare agrees
// with its keys' byte order, so both instantiations sort a sender's
// sends alike, find the same duplicates next to each other and order
// every inbox alike; NaN, which never equals itself, stays outside the
// contract. The schedule is therefore the same for every
// instantiation: golden_test.go pins the trace digests on both, and
// naive_test.go checks the core against a map-based model of the
// paper's §IV.
package sim

import (
	"fmt"
	"slices"
	"sort"

	"idonly/internal/ids"
	"idonly/internal/quorum"
)

// WireMsg is the constraint on a protocol's concrete wire type M: a
// comparable value (a sender's duplicates are found by value equality
// once its sends are sorted) that compares as the sort key of the
// payload it stands for (sortkey.go).
// A union's zero value must be no message: BoxedStep delivers payloads
// outside the union as it.
type WireMsg[M any] interface {
	comparable
	// Compare orders two wire values as the keys of the payloads they
	// unwrap to order: its sign is that of bytes.Compare over the two
	// keys, for every pair of values. The typed plane orders inboxes by
	// it and renders no key.
	Compare(M) int
}

// SendT is a message as submitted by a process: a destination and a
// payload. The runner stamps the sender.
type SendT[M any] struct {
	To      ids.ID // Broadcast or a specific node id
	Payload M
}

// BroadcastT is a convenience constructor for a typed broadcast.
func BroadcastT[M any](p M) SendT[M] { return SendT[M]{To: Broadcast, Payload: p} }

// UnicastT is a convenience constructor for a typed direct send.
func UnicastT[M any](to ids.ID, p M) SendT[M] { return SendT[M]{To: to, Payload: p} }

// ProcessT is a correct participant stepping on concrete message
// types. StepTyped is Step with the payload type fixed; the ownership
// rules are identical (the inbox is runner-owned, reused and shared,
// so neither retained nor modified; the send slice is process-owned
// scratch). A protocol node with a wire union holds its round logic in
// StepTyped alone and derives Process.Step from it through its codec
// (BoxedStep), so the two planes cannot drift apart.
type ProcessT[M any] interface {
	ID() ids.ID
	StepTyped(round int, inbox []MsgT[M]) []SendT[M]
	Decided() bool
	Output() any
}

// Codec converts between a protocol's wire type and the boxed payloads
// the Adversary and Observer interfaces carry. Wrap must be injective
// on the union (distinct boxed values map to distinct wire values) and
// canonical (unused fields of a wire value are always zero for a given
// kind), so wire-value equality coincides with boxed-value equality.
// Unwrap must invert Wrap, returning the exact payload type the boxed
// instantiation carries — adversaries and observers see the same
// values either way.
type Codec[M any] struct {
	// Wrap converts a boxed payload into the wire type; ok is false for
	// payloads outside the union (the runner cannot carry them). The
	// value it returns with ok false is what a derived Step (BoxedStep)
	// hands StepTyped in the payload's place: the zero M, unless the
	// union keeps part of an outside payload (a session tag around an
	// unknown inner payload, say) to classify it as noise.
	Wrap func(p any) (M, bool)
	// Unwrap restores the boxed payload an adversary or observer sees.
	Unwrap func(m M) any
}

// BoxedStep runs a ProcessT on the boxed plane through its Codec: the
// inbox is wrapped into reused scratch, StepTyped runs, and its sends
// are unwrapped into reused scratch. A wire-union node embeds one and
// implements Process.Step as a single delegation to Step. A payload
// outside the union reaches StepTyped as what Wrap returned for it —
// the zero M, or the union's noise kind — with its sender kept: no
// message the protocol knows, but a sender it heard from. The
// protocol's zero kind must therefore classify as nothing. The zero
// value is ready to use.
type BoxedStep[M any] struct {
	inbox []MsgT[M]
	sends []Send
}

// Step is p.StepTyped over a boxed inbox, with boxed sends.
func (b *BoxedStep[M]) Step(p ProcessT[M], c Codec[M], round int, inbox []Message) []Send {
	in := b.inbox[:0]
	for _, msg := range inbox {
		m, _ := c.Wrap(msg.Payload)
		in = append(in, MsgT[M]{From: msg.From, Payload: m})
	}
	b.inbox = in
	out := b.sends[:0]
	for _, s := range p.StepTyped(round, in) {
		out = append(out, Send{To: s.To, Payload: c.Unwrap(s.Payload)})
	}
	b.sends = out
	return out
}

// spawn is a node scheduled to join; proc is the zero P for a faulty one.
type spawn[P any] struct {
	proc   P
	id     ids.ID
	faulty bool
}

// TypedRunner executes a synchronous round-based system. Construct
// with NewTypedRunner (or NewRunner for boxed payloads); the zero value
// is not usable.
type TypedRunner[P ProcessT[M], M comparable] struct {
	cfg   Config
	adv   Adversary
	blind bool // adv never reads an inbox (Blind): faulty slots keep none
	codec Codec[M]
	cmp   func(a, b M) int // inbox order of two payloads

	// Struct-of-arrays node table, sorted by id: parallel slices
	// indexed by slot, so a round walks contiguous memory instead of
	// chasing per-node structs. procs and leaver are zero on faulty
	// slots (the adversary drives those).
	idvec  []ids.ID
	procs  []P
	faulty []bool
	done   []bool       // correct process observed Decided (skip future Steps)
	leaver []Leaver     // non-nil when the process has a leave discipline
	slot   quorum.Index // id -> slot: numbered over idvec in order

	// Delivery (plane.go): the broadcast log carries each broadcast
	// once for every slot, and flips at the round boundary. Unicasts go
	// into one bucket, sender after sender; after the round's last
	// delivery it scatters them into cur, one lane per slot, which the
	// next round reads, merged with the log into merged when not empty.
	// All backing arrays are reused for the run.
	log    bcastLog[M]
	bucket bucket[M]
	cur    []laneBuf[M]
	merged laneBuf[M]

	// A reading adversary's inboxes, boxed at the edge when M ≠ any:
	// blog is the sorted log's boxed form, made once per round when a
	// faulty slot first reads (blogRound), bmerged any other faulty
	// inbox, which reuses blog's boxes for its log entries. boxM/boxV
	// memoize the last box, so an equivocator's one value to half the
	// system is boxed once, not once per recipient.
	blog      []Message
	blogRound int
	bmerged   []Message
	boxM      M
	boxV      any
	boxOK     bool

	undecided int // correct processes not yet observed Decided
	metrics   Metrics
	spawns    map[int][]spawn[P] // round -> nodes joining at the start of that round
	exits     map[int][]ids.ID   // round -> faulty nodes leaving at its end
	round     int
	leavers   []int // this round's leaving slots, ascending; reused

	obsSends []Send // observer unbox scratch, reused
}

// NewTypedRunner creates a runner over a protocol's wire union: the
// given processes, faulty node ids and the adversary controlling them.
// codec must round-trip every payload the protocol and the adversary
// emit (an adversary payload outside the union panics the run:
// eligibility is the caller's contract); adv may be nil when faulty is
// empty. Inboxes are ordered by M's Compare; no sort key is rendered.
// When adv is Blind, the faulty slots' traffic is counted and never
// stored, so it is never boxed either.
func NewTypedRunner[P ProcessT[M], M WireMsg[M]](cfg Config, procs []P, faulty []ids.ID, adv Adversary, codec Codec[M]) *TypedRunner[P, M] {
	return newRunner(cfg, procs, faulty, adv, codec, M.Compare)
}

func newRunner[P ProcessT[M], M comparable](cfg Config, procs []P, faulty []ids.ID, adv Adversary, codec Codec[M], cmp func(a, b M) int) *TypedRunner[P, M] {
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	if codec.Wrap == nil || codec.Unwrap == nil {
		panic("sim: runner needs a complete codec")
	}
	if len(faulty) > 0 && adv == nil {
		panic("sim: faulty nodes without an adversary")
	}
	nn := len(procs) + len(faulty)
	_, blind := adv.(Blind)
	r := &TypedRunner[P, M]{
		cfg:    cfg,
		adv:    adv,
		blind:  blind || adv == nil,
		codec:  codec,
		cmp:    cmp,
		idvec:  make([]ids.ID, 0, nn),
		procs:  make([]P, nn),
		faulty: make([]bool, nn),
		done:   make([]bool, nn),
		leaver: make([]Leaver, nn),
		cur:    make([]laneBuf[M], nn),
		spawns: make(map[int][]spawn[P]),
		exits:  make(map[int][]ids.ID),
	}
	r.metrics.DecidedRound = make(map[ids.ID]int)
	rows := make([]spawn[P], 0, nn)
	for _, p := range procs {
		rows = append(rows, spawn[P]{proc: p, id: p.ID()})
	}
	for _, id := range faulty {
		rows = append(rows, spawn[P]{id: id, faulty: true})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].id < rows[j].id })
	for i, rw := range rows {
		if i > 0 && rows[i-1].id == rw.id {
			switch prev := rows[i-1]; {
			case prev.faulty && rw.faulty:
				panic(fmt.Sprintf("sim: duplicate faulty id %d", rw.id))
			case !prev.faulty && !rw.faulty:
				panic(fmt.Sprintf("sim: duplicate process id %d", rw.id))
			default:
				panic(fmt.Sprintf("sim: id %d is both correct and faulty", rw.id))
			}
		}
		r.idvec = append(r.idvec, rw.id)
		r.faulty[i] = rw.faulty
		if !rw.faulty {
			r.procs[i] = rw.proc
			r.leaver[i], _ = any(rw.proc).(Leaver)
		}
	}
	r.reslot()
	r.presize()
	r.undecided = len(procs)
	r.metrics.PeakNodes = nn
	r.metrics.MinNodes = nn
	return r
}

// presize seeds the founders' delivery buffers for about one send per
// peer per round — the broadcast log with clamp(n, 8, 64) entries, the
// bucket with n — so short runs do not spend their few rounds growing
// buffers one doubling at a time.
func (r *TypedRunner[P, M]) presize() {
	n := len(r.idvec)
	r.log = newLog[M](min(max(n, 8), 64))
	r.bucket.ents = make([]bucketEnt[M], 0, n)
}

// ScheduleJoin arranges for a correct process to join the system at the
// start of the given round (its first Step is that round).
func (r *TypedRunner[P, M]) ScheduleJoin(round int, p P) {
	r.schedule(round, spawn[P]{proc: p, id: p.ID()})
}

// ScheduleFaultyJoin arranges for a faulty node to join at the start of
// the given round.
func (r *TypedRunner[P, M]) ScheduleFaultyJoin(round int, id ids.ID) {
	r.schedule(round, spawn[P]{id: id, faulty: true})
}

func (r *TypedRunner[P, M]) schedule(round int, s spawn[P]) {
	if round <= r.round {
		panic("sim: join scheduled in the past")
	}
	r.spawns[round] = append(r.spawns[round], s)
}

// ScheduleFaultyLeave arranges for a faulty node to leave the system
// at the end of the given round (the adversary decides when faulty
// nodes leave, per the dynamic model): its sends of that round are
// delivered, and it is gone from the next. A run that stops in that
// round because every correct node decided ends with the node still
// present. The id must be faulty and present when the round ends.
func (r *TypedRunner[P, M]) ScheduleFaultyLeave(round int, id ids.ID) {
	if round <= r.round {
		panic("sim: leave scheduled in the past")
	}
	r.exits[round] = append(r.exits[round], id)
}

// Active returns a copy of the sorted ids of all present nodes.
func (r *TypedRunner[P, M]) Active() []ids.ID { return slices.Clone(r.idvec) }

// Metrics returns the metrics accumulated so far.
func (r *TypedRunner[P, M]) Metrics() Metrics { return r.metrics }

// Round returns the number of the last executed round (0 before Run).
func (r *TypedRunner[P, M]) Round() int { return r.round }

// Run executes rounds until every correct node has decided (when
// StopWhenAllDecided), the caller-provided stop function returns true,
// or MaxRounds is reached. stop may be nil. It returns the metrics.
func (r *TypedRunner[P, M]) Run(stop func(round int) bool) Metrics {
	for r.round < r.cfg.MaxRounds {
		r.StepRound()
		if r.cfg.StopWhenAllDecided && r.undecided == 0 {
			break
		}
		if stop != nil && stop(r.round) {
			break
		}
	}
	return r.metrics
}

// StepRound executes exactly one round: joins scheduled for this round
// take effect, every active node consumes its inbox and produces sends,
// the sends become next round's inboxes, and the round's leavers and
// scheduled faulty leaves go.
func (r *TypedRunner[P, M]) StepRound() {
	r.round++
	round := r.round
	for _, s := range r.spawns[round] {
		r.insert(s)
	}
	delete(r.spawns, round)

	// Flip the delivery buffers: last round's log becomes this round's
	// shared inbox, sorted sender by sender as each closed, beside the
	// lanes last round's bucket scattered, and the log consumed last
	// round is emptied, backing arrays intact, to receive this round's
	// traffic.
	// All of it keeps the capacity the run grew it to and is freed with
	// the runner.
	r.log.flip()
	r.metrics.ByRound = append(r.metrics.ByRound, 0)

	r.leavers = r.leavers[:0]
	// Membership is frozen while the round executes: joins applied
	// above, leavers removed below, so the slots delivery tags its
	// bucket entries with are the slots the scatter hands lanes to.
	nn := len(r.idvec)
	for i := 0; i < nn; i++ {
		id := r.idvec[i]
		lo, ulo := len(r.log.next.msgs), len(r.bucket.ents)
		if r.faulty[i] {
			var inbox []Message
			if !r.blind {
				inbox = r.faultyInbox(i)
			}
			for _, s := range r.adv.Step(id, round, inbox) {
				// The adversary speaks boxed payloads: wrap into the wire
				// type.
				m, ok := r.codec.Wrap(s.Payload)
				if !ok {
					panic(fmt.Sprintf("sim: runner cannot carry adversary payload %T", s.Payload))
				}
				r.deliver(id, s.To, m)
			}
		} else {
			p := r.procs[i]
			// done[i] caches Decided: the protocols are monotone, so
			// re-asking a decided node every round would be a no-op.
			if r.done[i] || p.Decided() {
				r.markDecided(i, round-1)
				continue
			}
			sends := p.StepTyped(round, r.inbox(i))
			if r.cfg.Observer != nil {
				r.observe(round, id, sends)
			}
			for _, s := range sends {
				r.deliver(id, s.To, s.Payload)
			}
			if p.Decided() {
				r.markDecided(i, round)
			}
			if l := r.leaver[i]; l != nil && l.Left() {
				r.leavers = append(r.leavers, i)
			}
		}
		r.closeSender(lo, ulo)
	}
	// The round's last delivery is done: scatter the bucket into the
	// lanes next round reads, then drop the leavers, lanes and all,
	// highest slot first, so no removal shifts a slot still to go.
	if r.bucket.scatter(r.cur) {
		r.metrics.InboxGrows++
	}
	for k := len(r.leavers) - 1; k >= 0; k-- {
		r.remove(r.leavers[k])
	}
	// Scheduled faulty leaves follow, unless the run ends here because
	// every correct node decided.
	if exits, ok := r.exits[round]; ok && !(r.cfg.StopWhenAllDecided && r.undecided == 0) {
		for _, id := range exits {
			j, ok := r.slot.Lookup(id)
			if !ok || !r.faulty[j] {
				panic(fmt.Sprintf("sim: leave of non-faulty id %d", id))
			}
			r.remove(int(j))
		}
		delete(r.exits, round)
	}
	r.metrics.Rounds = round
}

// inbox assembles slot i's inbox for this round (plane.go), in the
// merge scratch when its lane is not empty.
func (r *TypedRunner[P, M]) inbox(i int) []MsgT[M] {
	return assemble(&r.cur[i], &r.log, &r.merged, r.cmp)
}

// faultyInbox is faulty slot i's inbox for a reading adversary: the
// slot's inbox itself when M = any, and otherwise that inbox boxed at
// the edge — the shared log's boxed form, made once per round, when
// the lane is empty, or else the merged inbox boxed into scratch, its
// log entries taking their boxes from the log's.
func (r *TypedRunner[P, M]) faultyInbox(i int) []Message {
	in := r.inbox(i)
	if boxed, ok := any(in).([]Message); ok {
		return boxed
	}
	if r.blogRound != r.round {
		r.blog, r.blogRound = r.boxAll(r.blog[:0], r.log.sorted.msgs, nil), r.round
	}
	if lane := &r.cur[i]; len(lane.msgs) == 0 && !lane.noLog {
		return r.blog
	}
	r.bmerged = r.boxAll(r.bmerged[:0], in, r.blog)
	return r.bmerged
}

// boxAll appends the boxed form of in to dst. in holds the entries of
// the sorted log whose boxes are logged in log order, and an entry
// equal to the next of them takes its box; any other is unwrapped,
// consecutive equal payloads sharing one box.
func (r *TypedRunner[P, M]) boxAll(dst []Message, in []MsgT[M], logged []Message) []Message {
	j := 0
	for _, e := range in {
		if j < len(logged) && e == r.log.sorted.msgs[j] {
			dst = append(dst, logged[j])
			j++
			continue
		}
		if !r.boxOK || e.Payload != r.boxM {
			r.boxM, r.boxV, r.boxOK = e.Payload, r.codec.Unwrap(e.Payload), true
		}
		dst = append(dst, Message{From: e.From, Payload: r.boxV})
	}
	return dst
}

// markDecided records the first round a correct node reported Decided
// and maintains the undecided counter that replaces a per-round
// all-decided scan.
func (r *TypedRunner[P, M]) markDecided(i, round int) {
	if r.done[i] {
		return
	}
	r.done[i] = true
	if id := r.idvec[i]; !r.hasDecided(id) {
		r.metrics.DecidedRound[id] = round
		r.undecided--
	}
}

func (r *TypedRunner[P, M]) hasDecided(id ids.ID) bool {
	_, seen := r.metrics.DecidedRound[id]
	return seen
}

// observe hands the observer the boxed sends of one process. On the
// boxed instantiation the send slice already is a []Send; otherwise
// the boxes are rebuilt in runner-owned scratch.
func (r *TypedRunner[P, M]) observe(round int, from ids.ID, sends []SendT[M]) {
	out, boxed := any(sends).([]Send)
	if !boxed {
		out = r.obsSends[:0]
		for _, s := range sends {
			out = append(out, Send{To: s.To, Payload: r.codec.Unwrap(s.Payload)})
		}
		r.obsSends = out
	}
	r.cfg.Observer(round, from, out)
}

// deliver routes one send from the given sender by its destination:
// a broadcast — to every currently active node, the sender itself
// included (the paper's algorithms count the self-copy, e.g. Alg. 4
// "including self") — is one log append, and a unicast is one bucket
// push. A unicast whose destination is absent (left or never joined)
// vanishes. Duplicates are dropped, and deliveries counted, when the
// sender's Step is closed (closeSender).
func (r *TypedRunner[P, M]) deliver(from, to ids.ID, m M) {
	if to == Broadcast {
		if r.log.next.push(from, m) {
			r.metrics.InboxGrows++
		}
	} else if j, ok := r.slot.Lookup(to); ok {
		r.bucket.push(int(j), from, m)
	}
}

// closeSender applies the model's rule — no duplicate from the same
// node within one round — to the sends of the slot that just stepped:
// its broadcasts, log entries from lo on, and its unicasts, bucket
// entries from ulo on (plane.go). A kept broadcast counts a delivery
// to every slot and a repeated one as many drops; a unicast counts one
// either way, and so does one of a payload the sender also broadcast,
// which the log already carries. A blind adversary's slot keeps no
// lane: a delivery to it is counted only.
func (r *TypedRunner[P, M]) closeSender(lo, ulo int) {
	n := int64(len(r.idvec))
	logged := r.log.next.msgs[lo:]
	kept := dedupRun(logged, r.cmp)
	r.log.next.msgs = r.log.next.msgs[:lo+len(kept)]
	var blind []bool
	if r.blind {
		blind = r.faulty
	}
	delivered, dropped := r.bucket.close(ulo, kept, blind, r.cmp)
	delivered += n * int64(len(kept))
	dropped += n * int64(len(logged)-len(kept))
	r.metrics.MessagesDelivered += delivered
	r.metrics.MessagesDropped += dropped
	r.metrics.ByRound[len(r.metrics.ByRound)-1] += delivered
}

// insert places a joining node into the sorted table, shifting every
// column at the insertion point and renumbering the slot index. Its
// lane is empty and marked to skip the log, which was filled before
// the joiner was there: that is its first inbox. Membership changes
// are rare and never mid-delivery; delivery only ever reads the slot
// index.
func (r *TypedRunner[P, M]) insert(s spawn[P]) {
	i, present := slices.BinarySearch(r.idvec, s.id)
	if present {
		switch {
		case s.faulty && r.faulty[i]:
			panic(fmt.Sprintf("sim: faulty id %d joined twice", s.id))
		case !s.faulty && !r.faulty[i]:
			panic(fmt.Sprintf("sim: process id %d joined twice", s.id))
		}
		panic(fmt.Sprintf("sim: id %d already active", s.id))
	}
	r.idvec = slices.Insert(r.idvec, i, s.id)
	var leaver Leaver
	if !s.faulty {
		leaver, _ = any(s.proc).(Leaver)
		r.undecided++
	}
	r.procs = slices.Insert(r.procs, i, s.proc)
	r.faulty = slices.Insert(r.faulty, i, s.faulty)
	r.done = slices.Insert(r.done, i, false)
	r.leaver = slices.Insert(r.leaver, i, leaver)
	r.cur = slices.Insert(r.cur, i, laneBuf[M]{noLog: true})
	r.reslot()
	r.metrics.Joins++
	r.metrics.PeakNodes = max(r.metrics.PeakNodes, len(r.idvec))
}

// remove drops slot i from every column (slices.Delete zeroes the
// vacated tail, so the slot's lane views go with it), renumbers the
// slot index and keeps the undecided counter consistent when a correct
// process leaves without having decided.
func (r *TypedRunner[P, M]) remove(i int) {
	id := r.idvec[i]
	if !r.faulty[i] && !r.hasDecided(id) {
		r.undecided--
	}
	r.idvec = slices.Delete(r.idvec, i, i+1)
	r.procs = slices.Delete(r.procs, i, i+1)
	r.faulty = slices.Delete(r.faulty, i, i+1)
	r.done = slices.Delete(r.done, i, i+1)
	r.leaver = slices.Delete(r.leaver, i, i+1)
	r.cur = slices.Delete(r.cur, i, i+1)
	r.reslot()
	r.metrics.Leaves++
	r.metrics.MinNodes = min(r.metrics.MinNodes, len(r.idvec))
}

// reslot renumbers the slot index after a shift: numbering idvec in
// order from an empty index makes each id's number its slot.
func (r *TypedRunner[P, M]) reslot() {
	r.slot.Reset()
	for _, id := range r.idvec {
		r.slot.Of(id)
	}
}
