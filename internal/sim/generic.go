// The runner core: the one implementation of a round, generic over the
// concrete process and message types.
//
// TypedRunner is instantiated with a process type P and a comparable
// wire type M, and everything a round does — buffer flip, inbox
// assembly, adversary and process steps, observer, delivery through
// the duplicate filter into the broadcast log and the exception lanes
// (plane.go), decided bookkeeping, membership churn — exists here and
// nowhere else. Two kinds of instantiation share it:
//
//   - NewTypedRunner, over a protocol's closed wire union (a small
//     value struct) and its concrete node type: the compiler stencils
//     the delivery plane, messages travel as []MsgT[M] with no `any`
//     box, and the filter hashes the wire value itself.
//   - NewRunner (sim.go), over boxed payloads (M = any) and an adapter
//     that presents a Process as a ProcessT[any]: any payload type
//     with a sort key, with an identity codec.
//
// What an instantiation supplies besides its types is a Codec — how a
// wire value crosses to and from the boxed form the Adversary and
// Observer interfaces speak — and a key renderer, how a wire value
// appends its sort key. A blind adversary (Blind) is handed no inbox,
// so its faulty slots keep none and nothing is unwrapped for them.
// Delivery is paid per source: the key is rendered once per (sender,
// payload) per round, and a fresh broadcast is one log append whatever
// the recipient count, so an inbox may be the round's shared log; the
// rest is one append to the round's bucket. Node bookkeeping lives in
// struct-of-arrays (ids, processes, faulty and decided flags, lanes,
// in parallel slices a round streams through), sorted by id
// and indexed through a quorum.Index that numbers the ids in slot
// order; joins and leaves shift every column in step.
//
// The duplicate filter keys on (sender, wire value). Under the one key
// contract (sortkey.go) value equality and key equality coincide,
// across types too, so both instantiations name the same sources and
// order every inbox alike; NaN, which never equals itself, stays
// outside the contract. The schedule is therefore the same for every
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

// WireMsg is the constraint on a protocol's concrete wire type: a
// comparable value (the duplicate filter keys on it directly) that
// renders the sort key of the payload it stands for (sortkey.go). A
// union's zero value must be no message: BoxedStep delivers payloads
// outside the union as it.
type WireMsg interface {
	comparable
	SortKeyer
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

// srcKey is the duplicate-filter identity of one message source:
// sender and wire value.
type srcKey[M comparable] struct {
	from    ids.ID
	payload M
}

// sendCtx is the per-Send delivery state shared by every recipient of
// a send. The recipient set, which also holds the source's arena view
// of its key bytes, is resolved once per Send; the boxed form of the
// payload — needed only when a faulty node whose adversary reads its
// inbox is among the recipients — is materialized at most once, and
// adversary sends reuse the box they arrived in.
type sendCtx struct {
	set       *recipSet
	accepted  bool // at least one recipient took the message
	boxed     any  // lazy boxed payload for faulty recipients
	haveBoxed bool
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
	keyOf func(dst []byte, m M) []byte // appends m's sort key

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

	// Delivery (plane.go): the broadcast log carries each fresh
	// broadcast once for every slot; the exception lanes — wire-typed
	// for correct slots, boxed for faulty slots (the Adversary interface
	// consumes []Message) — carry the rest. The faulty slots read blog,
	// log's boxed mirror, which is filled only in rounds with a faulty
	// slot present (mirror); for M = any blog is nil and they read log
	// itself. A blind adversary reads neither: its slots' lanes stay
	// empty and blog is never built. The log is double-buffered and
	// flips at the round boundary. Lane traffic goes into one bucket per
	// plane, in delivery order; after the round's last delivery the
	// bucket scatters it into cur (bcur), one view per slot, which the
	// next round consumes. All backing arrays are reused for the run.
	log     bcastLog[M]
	blog    *bcastLog[any]
	mirror  bool
	bucket  bucket[M]
	bbucket bucket[any] // the faulty slots' traffic; unused when blind
	cur     []laneBuf[M]
	bcur    []inboxBuf

	// Merge scratch for inboxes whose lane is not empty: merged for the
	// correct slots, bmerged for the faulty slots.
	merged  laneBuf[M]
	bmerged inboxBuf

	undecided int // correct processes not yet observed Decided
	metrics   Metrics
	spawns    map[int][]spawn[P] // round -> nodes joining at the start of that round
	round     int
	stepping  bool  // a round is executing; membership is frozen
	leavers   []int // this round's leaving slots, ascending; reused

	// Double-buffered sort-key arenas: deliveries append key bytes to
	// nxtArena; at the round flip it becomes curArena, which the inbox
	// sorts (and their keyRef views) read.
	curArena []byte
	nxtArena []byte

	filter srcFilter[srcKey[M]] // within-round duplicate filter (plane.go)

	obsSends []Send // observer unbox scratch, reused
}

// NewTypedRunner creates a runner over a protocol's wire union: the
// given processes, faulty node ids and the adversary controlling them.
// codec must round-trip every payload the protocol and the adversary
// emit (an adversary payload outside the union panics the run:
// eligibility is the caller's contract); adv may be nil when faulty is
// empty. When adv is Blind, the faulty slots' traffic is counted and
// never stored, so it is never boxed either.
func NewTypedRunner[P ProcessT[M], M WireMsg](cfg Config, procs []P, faulty []ids.ID, adv Adversary, codec Codec[M]) *TypedRunner[P, M] {
	return newRunner(cfg, procs, faulty, adv, codec, func(dst []byte, m M) []byte { return m.AppendSortKey(dst) })
}

func newRunner[P ProcessT[M], M comparable](cfg Config, procs []P, faulty []ids.ID, adv Adversary, codec Codec[M], keyOf func([]byte, M) []byte) *TypedRunner[P, M] {
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
		cfg:      cfg,
		adv:      adv,
		blind:    blind || adv == nil,
		codec:    codec,
		keyOf:    keyOf,
		idvec:    make([]ids.ID, 0, nn),
		procs:    make([]P, nn),
		faulty:   make([]bool, nn),
		done:     make([]bool, nn),
		leaver:   make([]Leaver, nn),
		cur:      make([]laneBuf[M], nn),
		bcur:     make([]inboxBuf, nn),
		spawns:   make(map[int][]spawn[P]),
		curArena: make([]byte, 0, 1024),
		nxtArena: make([]byte, 0, 1024),
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
// peer per round — the broadcast log (and, for M ≠ any under an
// adversary that reads, its boxed mirror) with clamp(n, 8, 64) entries,
// each bucket with n — so short runs do not spend their few rounds
// growing buffers one doubling at a time.
func (r *TypedRunner[P, M]) presize() {
	n := len(r.idvec)
	c := min(max(n, 8), 64)
	r.log = newLog[M](c)
	r.bucket.ents = make([]bucketEnt[M], 0, n)
	if !r.blind {
		r.bbucket.ents = make([]bucketEnt[any], 0, n)
		if _, boxed := any(&r.log).(*bcastLog[any]); !boxed {
			l := newLog[any](c)
			r.blog = &l
		}
	}
	r.filter.init(n)
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

// RemoveFaulty removes a faulty node from the system immediately (the
// adversary decides when faulty nodes leave, per the dynamic model).
// It must not be called while a round is executing (e.g. from an
// Observer): StepRound iterates the node table by slot and relies on
// membership being frozen for the duration of the round.
func (r *TypedRunner[P, M]) RemoveFaulty(id ids.ID) {
	if r.stepping {
		panic("sim: RemoveFaulty called mid-round")
	}
	j, ok := r.slot.Lookup(id)
	if !ok || !r.faulty[j] {
		panic(fmt.Sprintf("sim: RemoveFaulty on non-faulty id %d", id))
	}
	r.remove(int(j))
}

// Active returns a copy of the sorted ids of all present nodes.
func (r *TypedRunner[P, M]) Active() []ids.ID { return slices.Clone(r.idvec) }

// Process returns the correct process with the given id, or the zero P
// when the id is absent or faulty.
func (r *TypedRunner[P, M]) Process(id ids.ID) P {
	if j, ok := r.slot.Lookup(id); ok {
		return r.procs[j]
	}
	var zero P
	return zero
}

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
// and the sends become next round's inboxes.
func (r *TypedRunner[P, M]) StepRound() {
	r.stepping = true
	defer func() { r.stepping = false }()
	r.round++
	round := r.round
	for _, s := range r.spawns[round] {
		r.insert(s)
	}
	delete(r.spawns, round)

	// Flip the delivery buffers: last round's log becomes this round's
	// shared inbox, sorted once for everyone, beside the lanes last
	// round's bucket scattered, and the log consumed last round is
	// emptied, backing arrays intact, to receive this round's traffic.
	// The duplicate filter is emptied in place for the same reason, and
	// the key arenas flip in lockstep so every keyRef in a lane or the
	// log points into curArena. All of it keeps the capacity the run
	// grew it to and is freed with the runner.
	r.curArena, r.nxtArena = r.nxtArena, r.curArena[:0]
	r.filter.flip()
	r.log.flip(r.curArena)
	if r.blog != nil {
		r.blog.flip(r.curArena)
	}
	r.mirror = r.blog != nil && slices.Contains(r.faulty, true)
	r.metrics.ByRound = append(r.metrics.ByRound, 0)

	r.leavers = r.leavers[:0]
	// Membership is frozen while the round executes: joins applied
	// above, leavers removed below, so the slots delivery tags its
	// bucket entries with are the slots the scatter hands lanes to.
	nn := len(r.idvec)
	for i := 0; i < nn; i++ {
		id := r.idvec[i]
		if r.faulty[i] {
			var inbox []Message
			if !r.blind {
				inbox = assemble(&r.bcur[i], r.faultyLog(), &r.bmerged, r.curArena)
			}
			for _, s := range r.adv.Step(id, round, inbox) {
				// The adversary speaks boxed payloads: wrap into the wire
				// type and keep the original box for faulty recipients.
				m, ok := r.codec.Wrap(s.Payload)
				if !ok {
					panic(fmt.Sprintf("sim: runner cannot carry adversary payload %T", s.Payload))
				}
				r.deliver(id, s.To, m, sendCtx{boxed: s.Payload, haveBoxed: true})
			}
			continue
		}
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
			r.deliver(id, s.To, s.Payload, sendCtx{})
		}
		if p.Decided() {
			r.markDecided(i, round)
		}
		if l := r.leaver[i]; l != nil && l.Left() {
			r.leavers = append(r.leavers, i)
		}
	}
	// The round's last delivery is done: scatter the buckets into the
	// lanes next round reads, then drop the leavers, lanes and all,
	// highest slot first, so no removal shifts a slot still to go.
	if r.bucket.scatter(r.cur) {
		r.metrics.InboxGrows++
	}
	if !r.blind && r.bbucket.scatter(r.bcur) {
		r.metrics.InboxGrows++
	}
	for k := len(r.leavers) - 1; k >= 0; k-- {
		r.remove(r.leavers[k])
	}
	r.metrics.Rounds = round
}

// inbox assembles correct slot i's inbox for this round (plane.go), in
// the merge scratch when its lane is not empty.
func (r *TypedRunner[P, M]) inbox(i int) []MsgT[M] {
	return assemble(&r.cur[i], &r.log, &r.merged, r.curArena)
}

// faultyLog is the broadcast log the faulty slots read: the boxed
// mirror, or for M = any the log itself.
func (r *TypedRunner[P, M]) faultyLog() *bcastLog[any] {
	if r.blog != nil {
		return r.blog
	}
	return any(&r.log).(*bcastLog[any])
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

// deliver routes one send from the given sender, expanding broadcasts
// to every currently active node (including the sender itself — the
// paper's algorithms count the self-copy, e.g. Alg. 4 "including self")
// and discarding within-round duplicates per recipient. The filter
// probe is paid once per send and the sort key once per source; a
// broadcast whose source reached no slot yet is one log append, any
// other send fans out into the recipients' lanes. A unicast whose
// destination is absent (left or never joined) vanishes.
func (r *TypedRunner[P, M]) deliver(from, to ids.ID, m M, c sendCtx) {
	s := r.filter.resolve(srcKey[M]{from, m})
	if s.logged {
		// Every slot already holds this source through the log.
		if to == Broadcast {
			r.metrics.MessagesDropped += int64(len(r.idvec))
		} else if _, ok := r.slot.Lookup(to); ok {
			r.metrics.MessagesDropped++
		}
		return
	}
	rendered := !s.keyed
	if rendered {
		start := len(r.nxtArena)
		r.nxtArena = r.keyOf(r.nxtArena, m)
		s.key, s.keyed = keyRef{off: uint32(start), n: uint32(len(r.nxtArena) - start)}, true
	}
	c.set = s
	switch {
	case to == Broadcast && s.empty():
		s.logged = true
		r.logOne(from, m, &c)
	case to == Broadcast:
		s.upgrade()
		for i := range r.idvec {
			r.deliverOne(i, from, m, &c)
		}
	default:
		if j, ok := r.slot.Lookup(to); ok {
			r.deliverOne(int(j), from, m, &c)
		}
	}
	if rendered && !c.accepted {
		// Dropped everywhere (duplicates, or an absent unicast target):
		// nothing references the key bytes this send rendered, so
		// release them — a replay flood must not grow the arena.
		r.nxtArena = r.nxtArena[:s.key.off]
		s.keyed = false
	}
}

// logOne appends a fresh broadcast to the round's log (and its boxed
// mirror, when a faulty slot whose adversary reads is present): one
// entry stands for a delivery to every slot.
func (r *TypedRunner[P, M]) logOne(from ids.ID, m M, c *sendCtx) {
	if r.log.next.push(from, m, c.set.key) {
		r.metrics.InboxGrows++
	}
	if r.mirror {
		r.blog.next.push(from, r.box(m, c), c.set.key)
	}
	n := int64(len(r.idvec))
	c.accepted = true
	r.metrics.MessagesDelivered += n
	r.metrics.ByRound[len(r.metrics.ByRound)-1] += n
}

// deliverOne puts one delivery into the round's bucket, bound for slot
// i's exception lane, unless the slot already holds the source. A
// blind adversary's slot keeps no lane: the delivery is counted only.
func (r *TypedRunner[P, M]) deliverOne(i int, from ids.ID, m M, c *sendCtx) {
	if c.set.add(i) {
		r.metrics.MessagesDropped++
		return
	}
	switch {
	case r.faulty[i] && r.blind: // counted, not stored
	case r.faulty[i]:
		r.bbucket.push(i, from, r.box(m, c), c.set.key)
	default:
		r.bucket.push(i, from, m, c.set.key)
	}
	c.accepted = true
	r.metrics.MessagesDelivered++
	r.metrics.ByRound[len(r.metrics.ByRound)-1]++
}

// box returns the send's boxed payload for a faulty recipient,
// unwrapping it on first use.
func (r *TypedRunner[P, M]) box(m M, c *sendCtx) any {
	if !c.haveBoxed {
		c.boxed, c.haveBoxed = r.codec.Unwrap(m), true
	}
	return c.boxed
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
	r.bcur = slices.Insert(r.bcur, i, inboxBuf{noLog: true})
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
	r.bcur = slices.Delete(r.bcur, i, i+1)
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
