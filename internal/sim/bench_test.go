package sim

// Micro-benchmarks for the flat message plane's hot operations. The
// whole-protocol benchmarks live at the repo root (bench_test.go) and
// in cmd/idonly-bench -bench-json; these isolate the delivery path
// itself: broadcast fan-out (typed fast path and fmt fallback), inbox
// sorting and a full steady-state round. After warm-up — arena, intern
// table and inboxes at their steady sizes — the per-round path
// performs zero allocations.

import (
	"fmt"
	"testing"

	"idonly/internal/ids"
)

// benchPayload mirrors the protocols' payload shapes: a small
// comparable struct, registered on the typed fast path like every
// protocol message (test-local ordinal, outside the package ranges).
type benchPayload struct {
	Kind  int
	Value float64
}

func (p benchPayload) AppendSortKey(dst []byte) []byte {
	dst = AppendInt(append(dst, '{'), int64(p.Kind))
	dst = AppendFloat(append(dst, ' '), p.Value)
	return append(dst, '}')
}

func (benchPayload) SortKeyOrdinal() uint32 { return 0x7f01 }

// benchFallbackPayload is the same shape without SortKeyer: it rides
// the fmt.Append + interface-identity fallback path.
type benchFallbackPayload struct {
	Kind  int
	Value float64
}

// benchProc broadcasts one message per round and never decides.
type benchProc struct {
	id ids.ID
}

func (p *benchProc) ID() ids.ID    { return p.id }
func (p *benchProc) Decided() bool { return false }
func (p *benchProc) Output() any   { return nil }
func (p *benchProc) Step(round int, inbox []Message) []Send {
	return []Send{BroadcastPayload(benchPayload{Kind: 1, Value: float64(round)})}
}

func newBenchRunner(n int) *Runner {
	all := ids.Sparse(ids.NewRand(99), n)
	procs := make([]Process, n)
	for i, id := range all {
		procs[i] = &benchProc{id: id}
	}
	return NewRunner(Config{MaxRounds: 1 << 30}, procs, nil, nil)
}

// BenchmarkDeliverBroadcast measures one broadcast Send fanned out to n
// recipients, dedup and sort-key construction included — on the typed
// fast path and on the fmt fallback. The inboxes and duplicate filters
// are drained every few deliveries with the timer stopped — a round
// never carries unbounded backlog, and letting it pile up across b.N
// iterations would measure map growth instead of the steady-state
// fan-out.
func BenchmarkDeliverBroadcast(b *testing.B) {
	const batch = 16 // distinct broadcasts per sender per round; generous vs any protocol here
	modes := []struct {
		name string
		mk   func(i int) any
	}{
		{"typed", func(i int) any { return benchPayload{Kind: i % batch, Value: 1} }},
		{"fallback", func(i int) any { return benchFallbackPayload{Kind: i % batch, Value: 1} }},
	}
	for _, mode := range modes {
		// Box the payloads outside the timed loop: a protocol's Send
		// values are boxed by its own Step, so the fan-out itself is
		// what this benchmark isolates (the typed path is zero-alloc
		// once the arena, intern table and inboxes are warm).
		payloads := make([]Send, batch)
		for i := range payloads {
			payloads[i] = BroadcastPayload(mode.mk(i))
		}
		for _, n := range []int{8, 32, 128} {
			b.Run(fmt.Sprintf("%s/n=%d", mode.name, n), func(b *testing.B) {
				r := newBenchRunner(n)
				r.StepRound() // warm the pooled buffers
				// The highest id: its sends land after the warm-up round's
				// own traffic, keeping the lanes in sender order.
				from := r.nodes[n-1].id
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%batch == 0 && i > 0 {
						b.StopTimer()
						r.StepRound() // flip + clear both buffer generations
						r.StepRound()
						b.StartTimer()
					}
					// A distinct payload per iteration within a batch so
					// the dedup filter admits every delivery (the
					// steady-state path).
					r.deliver(from, payloads[i%batch])
				}
			})
		}
	}
}

// BenchmarkSortInbox measures sorting a pooled inbox whose sort keys
// were computed at delivery time into the key arena: m messages from
// m/8 senders in sender order (as delivery leaves them), each sender's
// run of 8 with its keys descending. The input is restored from a
// template each iteration; the sort formats nothing and compares arena
// byte views within one sender's run only.
func BenchmarkSortInbox(b *testing.B) {
	for _, m := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			senders := ids.SortIDs(ids.Sparse(ids.NewRand(7), m/8))
			tmpl := inboxBuf{}
			var arena []byte
			for i := 0; i < m; i++ {
				p := benchPayload{Kind: i % 3, Value: float64(m - i)}
				tmpl.msgs = append(tmpl.msgs, Message{From: senders[i/8], Payload: p})
				start := len(arena)
				arena = fmt.Append(arena, p)
				tmpl.keys = append(tmpl.keys, keyRef{off: uint32(start), n: uint32(len(arena) - start)})
			}
			buf := inboxBuf{msgs: make([]Message, m), keys: make([]keyRef, m)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf.msgs, tmpl.msgs)
				copy(buf.keys, tmpl.keys)
				buf.sort(arena)
			}
		})
	}
}

// BenchmarkStepRound measures one full steady-state round: n nodes
// each broadcasting one message to n recipients (n² deliveries), with
// all pooled buffers warm.
func BenchmarkStepRound(b *testing.B) {
	for _, n := range []int{8, 32, 128, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := newBenchRunner(n)
			r.StepRound()
			r.StepRound() // both buffer generations warm
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.StepRound()
			}
			b.ReportMetric(float64(n*n), "msgs/round")
		})
	}
}

// fanoutProc broadcasts 16 distinct registered payloads per round and
// repeats the first of them: n·16 sources, n²·16 deliveries and n²
// duplicate drops per round.
type fanoutProc struct {
	id    ids.ID
	sends []Send
}

func (p *fanoutProc) ID() ids.ID    { return p.id }
func (p *fanoutProc) Decided() bool { return false }
func (p *fanoutProc) Output() any   { return nil }
func (p *fanoutProc) Step(round int, inbox []Message) []Send {
	return p.sends
}

// BenchmarkRunnerBroadcastFanout watches the property the source-keyed
// filter exists for: on the reference plane the per-Send costs (key
// rendering, interning, one filter probe) are shared by all n
// recipients of a broadcast, so ns/delivery falls from n=14 to n=64 —
// a filter probed once per delivery rises instead, its map growing
// with n². At n=1024 a round is 16.7M appends over 1024 lanes (≈800 MB
// of inboxes) and cache misses, not the filter, set the cost; the
// figure to watch there is that it stays far below a map probe per
// delivery (EXPERIMENTS.md has the table).
func BenchmarkRunnerBroadcastFanout(b *testing.B) {
	for _, n := range []int{14, 64, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			procs := make([]Process, n)
			for i, id := range ids.Sparse(ids.NewRand(99), n) {
				p := &fanoutProc{id: id}
				for k := 0; k < 16; k++ {
					p.sends = append(p.sends, BroadcastPayload(benchPayload{Kind: k, Value: float64(i)}))
				}
				p.sends = append(p.sends, p.sends[0])
				procs[i] = p
			}
			r := NewRunner(Config{MaxRounds: 1 << 30}, procs, nil, nil)
			r.StepRound()
			r.StepRound() // both buffer generations warm
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.StepRound()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*n*16), "ns/delivery")
		})
	}
}

// ---- Monomorphized-plane counterparts ----------------------------------
//
// The benchmarks below run the same workloads through the TypedRunner,
// so `benchstat` (or eyeballing the CI log) reads the fast path's win
// directly: same shape, same names modulo the Typed suffix.

// benchCodec is the identity codec for benchPayload.
var benchCodec = Codec[benchPayload]{
	Wrap: func(p any) (benchPayload, bool) {
		v, ok := p.(benchPayload)
		return v, ok
	},
	Unwrap: func(m benchPayload) any { return m },
}

// benchProcT is benchProc on the typed plane.
type benchProcT struct {
	id    ids.ID
	sends []SendT[benchPayload]
}

func (p *benchProcT) ID() ids.ID    { return p.id }
func (p *benchProcT) Decided() bool { return false }
func (p *benchProcT) Output() any   { return nil }
func (p *benchProcT) StepTyped(round int, inbox []MsgT[benchPayload]) []SendT[benchPayload] {
	out := p.sends[:0]
	out = append(out, BroadcastT(benchPayload{Kind: 1, Value: float64(round)}))
	p.sends = out
	return out
}

func newTypedBenchRunner(n int) *TypedRunner[*benchProcT, benchPayload] {
	all := ids.Sparse(ids.NewRand(99), n)
	procs := make([]*benchProcT, n)
	for i, id := range all {
		procs[i] = &benchProcT{id: id}
	}
	return NewTypedRunner(Config{MaxRounds: 1 << 30}, procs, nil, nil, benchCodec)
}

// BenchmarkDeliverBroadcastTyped is BenchmarkDeliverBroadcast's typed
// mode on the monomorphized runner: no interning, no boxing, the
// duplicate filter keyed on the wire value itself.
func BenchmarkDeliverBroadcastTyped(b *testing.B) {
	const batch = 16
	payloads := make([]SendT[benchPayload], batch)
	for i := range payloads {
		payloads[i] = BroadcastT(benchPayload{Kind: i % batch, Value: 1})
	}
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := newTypedBenchRunner(n)
			r.StepRound()
			from := r.idvec[n-1]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%batch == 0 && i > 0 {
					b.StopTimer()
					r.StepRound()
					r.StepRound()
					b.StartTimer()
				}
				r.deliver(from, payloads[i%batch])
			}
		})
	}
}

// BenchmarkStepRoundTyped is BenchmarkStepRound on the typed plane.
func BenchmarkStepRoundTyped(b *testing.B) {
	for _, n := range []int{8, 32, 128, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := newTypedBenchRunner(n)
			r.StepRound()
			r.StepRound()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.StepRound()
			}
			b.ReportMetric(float64(n*n), "msgs/round")
		})
	}
}

// ---- Scale-frontier shape: sparse unicast overlay ----------------------

// benchSuccessors mirrors the ring overlay (internal/core/ring): slot
// i's neighbours at power-of-two index distances, n·⌈log₂ n⌉ unicasts
// per round instead of n² broadcasts — the only delivery shape that
// stays tractable at n = 10k+.
func benchSuccessors(all []ids.ID, i int) []ids.ID {
	n := len(all)
	var succ []ids.ID
	for d := 1; d < n; d *= 2 {
		succ = append(succ, all[(i+d)%n])
	}
	return succ
}

type benchSparseProc struct {
	id    ids.ID
	succ  []ids.ID
	sends []Send
}

func (p *benchSparseProc) ID() ids.ID    { return p.id }
func (p *benchSparseProc) Decided() bool { return false }
func (p *benchSparseProc) Output() any   { return nil }
func (p *benchSparseProc) Step(round int, inbox []Message) []Send {
	out := p.sends[:0]
	for _, s := range p.succ {
		out = append(out, Unicast(s, benchPayload{Kind: int(p.id % 7), Value: float64(round)}))
	}
	p.sends = out
	return out
}

type benchSparseProcT struct {
	id    ids.ID
	succ  []ids.ID
	sends []SendT[benchPayload]
}

func (p *benchSparseProcT) ID() ids.ID    { return p.id }
func (p *benchSparseProcT) Decided() bool { return false }
func (p *benchSparseProcT) Output() any   { return nil }
func (p *benchSparseProcT) StepTyped(round int, inbox []MsgT[benchPayload]) []SendT[benchPayload] {
	out := p.sends[:0]
	for _, s := range p.succ {
		out = append(out, UnicastT(s, benchPayload{Kind: int(p.id % 7), Value: float64(round)}))
	}
	p.sends = out
	return out
}

// BenchmarkStepRoundSparse measures one steady-state round of the
// sparse overlay on both planes at scale-frontier sizes.
func BenchmarkStepRoundSparse(b *testing.B) {
	for _, n := range []int{1024, 10240} {
		all := ids.Sparse(ids.NewRand(99), n)
		msgs := float64(n * len(benchSuccessors(all, 0)))

		b.Run(fmt.Sprintf("ref/n=%d", n), func(b *testing.B) {
			procs := make([]Process, n)
			for i, id := range all {
				procs[i] = &benchSparseProc{id: id, succ: benchSuccessors(all, i)}
			}
			r := NewRunner(Config{MaxRounds: 1 << 30}, procs, nil, nil)
			r.StepRound()
			r.StepRound()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.StepRound()
			}
			b.ReportMetric(msgs, "msgs/round")
		})

		b.Run(fmt.Sprintf("typed/n=%d", n), func(b *testing.B) {
			procs := make([]*benchSparseProcT, n)
			for i, id := range all {
				procs[i] = &benchSparseProcT{id: id, succ: benchSuccessors(all, i)}
			}
			r := NewTypedRunner(Config{MaxRounds: 1 << 30}, procs, nil, nil, benchCodec)
			r.StepRound()
			r.StepRound()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.StepRound()
			}
			b.ReportMetric(msgs, "msgs/round")
		})
	}
}
