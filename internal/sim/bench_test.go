package sim

// Micro-benchmarks for the runner core's hot operations. Whole-protocol
// runs are measured by the benchmark module (benchmark/, sim-scale);
// these isolate the delivery path itself — broadcast fan-out, inbox
// sorting, a full steady-state round, the sparse unicast overlay — as
// one table per operation over the instantiations of the core: boxed
// and typed. After warm-up — log, bucket, lanes and merge
// scratch at their steady sizes — the typed per-round path performs
// zero allocations, and the boxed one only the boxes its processes'
// Steps make (TestSteadyRoundAllocs).

import (
	"cmp"
	"fmt"
	"testing"

	"idonly/internal/ids"
)

// benchPayload mirrors the protocols' payload shapes: a small
// comparable struct, registered like every protocol message. It is the
// typed instantiation's wire type and the boxed one's payload.
type benchPayload struct {
	Kind  int
	Value float64
}

func (p benchPayload) AppendSortKey(dst []byte) []byte {
	return AppendFloat(AppendInt(append(dst, 0xf0), int64(p.Kind)), p.Value)
}

func (p benchPayload) Compare(o benchPayload) int {
	return cmp.Or(cmp.Compare(p.Kind, o.Kind), CompareFloat(p.Value, o.Value))
}

// benchCodec is the identity codec for benchPayload.
var benchCodec = Codec[benchPayload]{
	Wrap: func(p any) (benchPayload, bool) {
		v, ok := p.(benchPayload)
		return v, ok
	},
	Unwrap: func(m benchPayload) any { return m },
}

// benchProc plays a send schedule on either instantiation: mk lists
// one round's sends into the process-owned scratch it is handed, reused
// across rounds as every protocol does. Step boxes them, as a
// protocol's own Step would — the allocations a boxed round reports
// are those boxes.
type benchProc struct {
	id     ids.ID
	succ   []ids.ID // the sparse overlay's neighbours (benchRunners)
	mk     func(p *benchProc, round int, out []SendT[benchPayload]) []SendT[benchPayload]
	sends  []Send
	tsends []SendT[benchPayload]
}

func (p *benchProc) ID() ids.ID    { return p.id }
func (p *benchProc) Decided() bool { return false }
func (p *benchProc) Output() any   { return nil }
func (p *benchProc) StepTyped(round int, _ []MsgT[benchPayload]) []SendT[benchPayload] {
	p.tsends = p.mk(p, round, p.tsends[:0])
	return p.tsends
}
func (p *benchProc) Step(round int, _ []Message) []Send {
	p.sends = p.sends[:0]
	for _, s := range p.StepTyped(round, nil) {
		p.sends = append(p.sends, Unicast(s.To, s.Payload))
	}
	return p.sends
}

// oneBroadcast is the steady-state shape: one broadcast per node per
// round.
func oneBroadcast(p *benchProc, round int, out []SendT[benchPayload]) []SendT[benchPayload] {
	return append(out, BroadcastT(benchPayload{Kind: 1, Value: float64(round)}))
}

// benchRunners builds the same n-node system, every node playing mk,
// on the boxed and on the typed instantiation. Each node knows its ring
// overlay successors (internal/core/ring): the nodes at power-of-two
// index distances.
func benchRunners(n int, mk func(*benchProc, int, []SendT[benchPayload]) []SendT[benchPayload]) (*TypedRunner[boxedProc, any], *TypedRunner[*benchProc, benchPayload]) {
	all := ids.Sparse(ids.NewRand(99), n)
	boxed := make([]*benchProc, n)
	typed := make([]*benchProc, n)
	for i, id := range all {
		var succ []ids.ID
		for d := 1; d < n; d *= 2 {
			succ = append(succ, all[(i+d)%n])
		}
		boxed[i] = &benchProc{id: id, succ: succ, mk: mk}
		typed[i] = &benchProc{id: id, succ: succ, mk: mk}
	}
	cfg := Config{MaxRounds: 1 << 30}
	return NewRunner(cfg, boxed, nil, nil).TypedRunner, NewTypedRunner(cfg, typed, nil, nil, benchCodec)
}

// benchDeliver measures one sender's Step as the runner delivers it:
// len(payloads) distinct broadcasts, each fanned out to n recipients by
// one log append, then the close that sorts them and drops repeats.
// Each iteration empties the sender's part of the log again, so the
// log stays at its steady size.
func benchDeliver[P ProcessT[M], M comparable](b *testing.B, r *TypedRunner[P, M], payloads []M) {
	r.StepRound() // warm the pooled buffers
	// The highest id: its sends land after the warm-up round's own
	// traffic, keeping the log in sender order.
	from := r.idvec[len(r.idvec)-1]
	lo, ulo := len(r.log.next.msgs), len(r.bucket.ents)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range payloads {
			r.deliver(from, Broadcast, p)
		}
		r.closeSender(lo, ulo)
		r.log.next.msgs = r.log.next.msgs[:lo]
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(payloads)), "ns/send")
}

func BenchmarkDeliverBroadcast(b *testing.B) {
	const batch = 16 // distinct broadcasts per sender per round; generous vs any protocol here
	// Listed in descending order, so the close's sort has work to do.
	// Box the payloads outside the timed loop: a protocol's sends are
	// boxed by its own Step, so the fan-out itself is what this
	// benchmark isolates.
	registered := make([]any, batch)
	wire := make([]benchPayload, batch)
	for i := range wire {
		wire[i] = benchPayload{Kind: batch - i, Value: 1}
		registered[i] = wire[i]
	}
	for _, n := range []int{8, 32, 128} {
		boxed, typed := benchRunners(n, oneBroadcast)
		b.Run(fmt.Sprintf("boxed/n=%d", n), func(b *testing.B) { benchDeliver(b, boxed, registered) })
		b.Run(fmt.Sprintf("typed/n=%d", n), func(b *testing.B) { benchDeliver(b, typed, wire) })
	}
}

// BenchmarkSortInbox measures the sort a sender's close does: m
// broadcasts from m/8 senders, each sender's run of 8 in descending
// order, each run sorted by payload as its sender's close sorts it, on
// both planes — typed by the wire value's Compare, boxed by rendering
// both keys of each comparison into reused scratch. The input is
// restored from a template each iteration.
func BenchmarkSortInbox(b *testing.B) {
	for _, m := range []int{16, 64, 256} {
		senders := ids.SortIDs(ids.Sparse(ids.NewRand(7), m/8))
		var typed []MsgT[benchPayload]
		var boxed []Message
		for i := 0; i < m; i++ {
			p := benchPayload{Kind: i % 3, Value: float64(m - i)}
			typed = append(typed, MsgT[benchPayload]{From: senders[i/8], Payload: p})
			boxed = append(boxed, Message{From: senders[i/8], Payload: p})
		}
		b.Run(fmt.Sprintf("boxed/m=%d", m), func(b *testing.B) { benchSort(b, boxed, new(keyOrder).compare) })
		b.Run(fmt.Sprintf("typed/m=%d", m), func(b *testing.B) { benchSort(b, typed, benchPayload.Compare) })
	}
}

func benchSort[M any](b *testing.B, tmpl []MsgT[M], cmp func(a, b M) int) {
	buf := make([]MsgT[M], len(tmpl))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, tmpl)
		for lo := 0; lo < len(buf); lo += 8 {
			sortRun(buf[lo:lo+8], cmp)
		}
	}
}

// benchRounds measures full steady-state rounds with all pooled buffers
// warm, and reports what one round carries.
func benchRounds[P ProcessT[M], M comparable](b *testing.B, r *TypedRunner[P, M], msgsPerRound float64) {
	r.StepRound()
	r.StepRound() // both buffer generations warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.StepRound()
	}
	b.ReportMetric(msgsPerRound, "msgs/round")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*msgsPerRound), "ns/delivery")
}

// BenchmarkStepRound measures one full steady-state round: n nodes
// each broadcasting one message to n recipients (n² deliveries).
func BenchmarkStepRound(b *testing.B) {
	for _, n := range []int{8, 32, 128, 1024} {
		boxed, typed := benchRunners(n, oneBroadcast)
		b.Run(fmt.Sprintf("boxed/n=%d", n), func(b *testing.B) { benchRounds(b, boxed, float64(n*n)) })
		b.Run(fmt.Sprintf("typed/n=%d", n), func(b *testing.B) { benchRounds(b, typed, float64(n*n)) })
	}
}

// splitBroadcast is the split shape's correct side: one broadcast of
// one fixed payload per node per round.
func splitBroadcast(_ *benchProc, _ int, out []SendT[benchPayload]) []SendT[benchPayload] {
	return append(out, BroadcastT(splitPayload))
}

var splitPayload = benchPayload{Kind: 1}

// splitAdv is the split shape's faulty side: every faulty node unicasts
// its own payload to every correct node each round, from send slices
// built, boxes included, once up front. It never reads its inbox, and
// says so (Blind).
type splitAdv map[ids.ID][]Send

func (a splitAdv) Step(node ids.ID, _ int, _ []Message) []Send { return a[node] }
func (splitAdv) Blind()                                        {}

// readingSplitAdv plays splitAdv without the Blind declaration: the
// runner hands the faulty slots their inboxes, boxed at the edge.
type readingSplitAdv struct{ sends splitAdv }

func (a readingSplitAdv) Step(node ids.ID, round int, inbox []Message) []Send {
	return a.sends.Step(node, round, inbox)
}

// splitRunners builds the split shape on both instantiations: n correct
// nodes broadcasting beside f faulty ones unicasting, so every correct
// inbox merges the log with its own lane. blind selects the adversary.
func splitRunners(n, f int, blind bool) (*TypedRunner[boxedProc, any], *TypedRunner[*benchProc, benchPayload]) {
	all := ids.Sparse(ids.NewRand(98), n+f)
	correct, faulty := all[:n], all[n:]
	sends := make(splitAdv)
	for j, id := range faulty {
		for _, to := range correct {
			sends[id] = append(sends[id], Unicast(to, benchPayload{Kind: 2, Value: float64(j)}))
		}
	}
	var adv Adversary = readingSplitAdv{sends}
	if blind {
		adv = sends
	}
	boxed := make([]*benchProc, n)
	typed := make([]*benchProc, n)
	for i, id := range correct {
		boxed[i] = &benchProc{id: id, mk: splitBroadcast}
		typed[i] = &benchProc{id: id, mk: splitBroadcast}
	}
	cfg := Config{MaxRounds: 1 << 30}
	return NewRunner(cfg, boxed, faulty, adv).TypedRunner, NewTypedRunner(cfg, typed, faulty, adv, benchCodec)
}

// TestSteadyRoundAllocs pins the header's claim: once both buffer
// generations and the merge scratch are warm, a typed round allocates
// nothing, and a boxed round allocates at most the n payload boxes its
// benchProc Steps make — the runner itself adds none. Two shapes:
// BenchmarkStepRound's all-broadcast one, where every inbox is the
// shared log, and the split one, where faulty unicasts beside the
// correct broadcasts put every correct inbox on the merge path. The
// split adversary is blind, so its slots keep no inbox and the typed
// runner boxes nothing for them; the same adversary without the Blind
// declaration reads the log's boxed form, made once per round at the
// edge, where the one payload every correct node broadcasts is boxed
// once and then remembered, so a typed round still allocates nothing.
func TestSteadyRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin only holds uninstrumented")
	}
	check := func(shape string, n int, boxed *TypedRunner[boxedProc, any], typed *TypedRunner[*benchProc, benchPayload], typedMax int) {
		boxed.StepRound()
		boxed.StepRound() // both buffer generations warm
		typed.StepRound()
		typed.StepRound()
		if got := testing.AllocsPerRun(20, typed.StepRound); got > float64(typedMax) {
			t.Errorf("%s typed n=%d: a steady round allocates %.0f times, want <= %d", shape, n, got, typedMax)
		}
		if got := testing.AllocsPerRun(20, boxed.StepRound); got > float64(n) {
			t.Errorf("%s boxed n=%d: a steady round allocates %.0f times, want <= %d (one box per Step)", shape, n, got, n)
		}
	}
	for _, n := range []int{8, 32, 128} {
		boxed, typed := benchRunners(n, oneBroadcast)
		check("broadcast", n, boxed, typed, 0)
		boxed, typed = splitRunners(n, n/3, true)
		check("split/blind", n, boxed, typed, 0)
		for i := range typed.idvec {
			if !typed.faulty[i] && len(typed.cur[i].msgs) == 0 {
				t.Fatalf("split n=%d: correct slot %d has an empty lane, so its inbox is not merged", n, i)
			}
		}
		if typed.blog != nil {
			t.Fatalf("split/blind n=%d: the runner boxed a log nobody reads", n)
		}
		boxed, typed = splitRunners(n, n/3, false)
		check("split/reading", n, boxed, typed, 0)
		if len(typed.log.sorted.msgs) != n || len(typed.blog) != n {
			t.Fatalf("split/reading n=%d: log %d and its boxed form %d entries, want %d each", n, len(typed.log.sorted.msgs), len(typed.blog), n)
		}
	}
}

// BenchmarkRunnerBroadcastFanout watches the property the broadcast log
// exists for: every node broadcasts 16 distinct payloads per round and
// repeats the first of them — n·17 log appends, n²·16 deliveries and n²
// duplicate drops. Each broadcast is one log append; the sender's close
// sorts its 17 entries, drops the repeat, counting n drops, and leaves
// the log sorted, handed to all n recipients as their shared inbox. A
// round therefore costs O(n·17), not O(n²·16), and ns/delivery falls
// roughly as 1/n. At n=1024 a round is 16 384 log entries (≈0.5 MB)
// where a plane that appended per recipient made 16.7M appends over
// 1024 lanes (≈800 MB) and was bound by cache misses (EXPERIMENTS.md
// has both tables).
func BenchmarkRunnerBroadcastFanout(b *testing.B) {
	fanout := func(p *benchProc, _ int, out []SendT[benchPayload]) []SendT[benchPayload] {
		for k := 0; k <= 16; k++ {
			out = append(out, BroadcastT(benchPayload{Kind: k % 16, Value: float64(p.id % 1024)}))
		}
		return out
	}
	for _, n := range []int{14, 64, 1024} {
		boxed, typed := benchRunners(n, fanout)
		b.Run(fmt.Sprintf("boxed/n=%d", n), func(b *testing.B) { benchRounds(b, boxed, float64(n*n*16)) })
		b.Run(fmt.Sprintf("typed/n=%d", n), func(b *testing.B) { benchRounds(b, typed, float64(n*n*16)) })
	}
}

// BenchmarkStepRoundSparse measures one steady-state round of the
// scale-frontier shape at scale-frontier sizes: each node unicasts to
// its overlay successors — n·⌈log₂ n⌉ unicasts per round instead of n²
// broadcasts, the only delivery shape that stays tractable at n = 10k+.
func BenchmarkStepRoundSparse(b *testing.B) {
	sparse := func(p *benchProc, round int, out []SendT[benchPayload]) []SendT[benchPayload] {
		for _, s := range p.succ {
			out = append(out, UnicastT(s, benchPayload{Kind: int(p.id % 7), Value: float64(round)}))
		}
		return out
	}
	for _, n := range []int{1024, 10240} {
		boxed, typed := benchRunners(n, sparse)
		msgs := float64(n * len(typed.procs[0].succ))
		b.Run(fmt.Sprintf("boxed/n=%d", n), func(b *testing.B) { benchRounds(b, boxed, msgs) })
		b.Run(fmt.Sprintf("typed/n=%d", n), func(b *testing.B) { benchRounds(b, typed, msgs) })
	}
}
