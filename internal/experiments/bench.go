package experiments

// Benchmark snapshots: the same representative workloads as the
// repo-level benchmarks (bench_test.go), packaged so that both `go
// test -bench` and `cmd/idonly-bench -bench-json` run one code path.
// The -bench-json mode turns each workload into a BenchResult
// (ns/op, allocs/op, bytes/op, msgs/sec) via testing.Benchmark and the
// snapshots are checked in as BENCH_<n>.json, so the perf trajectory of
// the delivery path is tracked PR-over-PR. Allocation counts are the
// machine-independent signal; CI compares a fresh snapshot against the
// checked-in baseline and fails on a >2x allocs/op regression.

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"testing"

	"idonly/internal/adversary"
	"idonly/internal/async"
	"idonly/internal/baseline"
	"idonly/internal/core/approx"
	"idonly/internal/core/consensus"
	"idonly/internal/core/dynamic"
	"idonly/internal/core/parallel"
	"idonly/internal/core/rbroadcast"
	"idonly/internal/core/ring"
	"idonly/internal/core/rotor"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// BenchWorkload is one representative protocol run: a single complete
// simulation, repeated b.N times by the benchmark driver. Run returns
// the run's metrics (for E7, the asynchronous scheduler's event count
// is reported through MessagesDelivered).
type BenchWorkload struct {
	ID   string
	Name string
	Run  func() sim.Metrics
}

// BenchWorkloads returns every benchmark workload in experiment order.
// Each call constructs fresh closures; the workloads themselves are
// deterministic (fixed seeds, same as bench_test.go).
func BenchWorkloads() []BenchWorkload {
	return []BenchWorkload{
		{ID: "E1", Name: "reliable broadcast n=31 f=10 silent", Run: benchE1},
		{ID: "E2", Name: "resiliency boundary n=3f forgery", Run: benchE2},
		{ID: "E3", Name: "rotor-coordinator hidden-init", Run: benchE3},
		{ID: "E4", Name: "consensus f=8 split", Run: benchE4},
		{ID: "E5", Name: "phase king n=13 f=4 split", Run: benchE5},
		{ID: "E6", Name: "iterated approx outlier", Run: benchE6},
		{ID: "E7", Name: "async impossibility partition (events as msgs)", Run: benchE7},
		{ID: "E8", Name: "parallel consensus k=32", Run: benchE8},
		{ID: "E9", Name: "dynamic ordering 40 rounds churn", Run: benchE9},
		{ID: "E10", Name: "consensus staircase substitution", Run: benchE10},
		{ID: "S1", Name: "ring min-id flood n=1k (typed)", Run: benchRingScale(1_000)},
		{ID: "S2", Name: "ring min-id flood n=10k (typed)", Run: benchRingScale(10_000)},
		{ID: "S3", Name: "ring min-id flood n=100k (typed)", Run: benchRingScale(100_000)},
	}
}

// benchRingScale is the scale-frontier workload family: the ring
// min-id flood on the monomorphized fast path at n = 1k/10k/100k, all
// nodes correct, exactly as the engine's "scale" preset grid schedules
// it. The sparse overlay (⌈log₂ n⌉ successors per node) makes the
// per-round traffic n·⌈log₂ n⌉ unicasts — message-heavy without the
// quadratic blowup of a broadcast protocol, which is what lets the
// family reach 100k nodes at all.
func benchRingScale(n int) func() sim.Metrics {
	return func() sim.Metrics {
		rng := ids.NewRand(21)
		all := ids.Sparse(rng, n)
		horizon := ring.Horizon(n)
		nodes := make([]*ring.Node, n)
		for i, id := range all {
			nodes[i] = ring.New(id, ring.Successors(all, i), horizon)
		}
		r := sim.NewTypedRunner(sim.Config{MaxRounds: horizon + 2, StopWhenAllDecided: true},
			nodes, nil, nil, ring.WireCodec())
		m := r.Run(nil)
		if len(m.DecidedRound) != n {
			panic(fmt.Sprintf("ring scale n=%d: only %d/%d decided", n, len(m.DecidedRound), n))
		}
		return m
	}
}

// E1, E2, E4 and E10 run on the simulator core instantiated over their
// protocol's wire union (sim.NewTypedRunner), exactly as the engine
// would schedule them: their protocol/adversary cells are fast-path
// eligible, so the snapshot tracks the instantiation that production
// sweeps actually use. E3/E5-E9 run boxed (sim.NewRunner: those
// protocols have no wire union), keeping both instantiations under the
// perf gate.

func benchE1() sim.Metrics {
	rng := ids.NewRand(1)
	all := ids.Sparse(rng, 31)
	var procs []*rbroadcast.Node
	for j, id := range all[:21] {
		procs = append(procs, rbroadcast.New(id, j == 0, "m"))
	}
	r := sim.NewTypedRunner(sim.Config{MaxRounds: 6}, procs, all[21:], adversary.Silent{}, rbroadcast.WireCodec())
	return r.Run(func(round int) bool { return round >= 4 })
}

func benchE2() sim.Metrics {
	rng := ids.NewRand(2)
	all := ids.Sparse(rng, 9) // n = 3f with f = 3
	var procs []*rbroadcast.Node
	for _, id := range all[:6] {
		procs = append(procs, rbroadcast.New(id, false, ""))
	}
	adv := adversary.RBForgeSource{FakeM: "forged", FakeS: all[0]}
	r := sim.NewTypedRunner(sim.Config{MaxRounds: 20}, procs, all[6:], adv, rbroadcast.WireCodec())
	return r.Run(nil)
}

func benchE3() sim.Metrics {
	rng := ids.NewRand(3)
	all := ids.Sparse(rng, 13)
	correct := all[:9]
	faulty := all[9:]
	var procs []sim.Process
	for j, id := range correct {
		procs = append(procs, rotor.New(id, float64(j)))
	}
	per := make(map[ids.ID]sim.Adversary)
	for j, id := range faulty {
		per[id] = &adversary.RotorHidden{Subset: correct[:1+j%len(correct)], All: all, X1: -1, X2: -2}
	}
	r := sim.NewRunner(sim.Config{MaxRounds: 130, StopWhenAllDecided: true},
		procs, faulty, adversary.Compose{PerNode: per})
	return r.Run(nil)
}

func benchE4() sim.Metrics {
	const f = 8
	n := 3*f + 1
	rng := ids.NewRand(4 + uint64(f))
	all := ids.Sparse(rng, n)
	var procs []*consensus.Node
	for j, id := range all[:n-f] {
		procs = append(procs, consensus.New(id, float64(j%2)))
	}
	adv := adversary.ConsSplit{X1: 0, X2: 1, All: all}
	r := sim.NewTypedRunner(sim.Config{StopWhenAllDecided: true}, procs, all[n-f:], adv, consensus.WireCodec())
	return r.Run(nil)
}

func benchE5() sim.Metrics {
	n, f := 13, 4
	all := ids.Consecutive(n)
	var procs []sim.Process
	for j, id := range all[:n-f] {
		procs = append(procs, baseline.NewKing(id, n, f, float64(j%2)))
	}
	adv := adversary.KingSplit{X1: 0, X2: 1, All: all}
	r := sim.NewRunner(sim.Config{StopWhenAllDecided: true}, procs, all[n-f:], adv)
	return r.Run(nil)
}

func benchE6() sim.Metrics {
	rng := ids.NewRand(6)
	all := ids.Sparse(rng, 10)
	var procs []sim.Process
	for j, id := range all[:7] {
		procs = append(procs, approx.NewIterated(id, float64(j*100), 8))
	}
	adv := adversary.ApproxOutlier{Low: -1e6, High: 1e6, All: all}
	r := sim.NewRunner(sim.Config{MaxRounds: 10, StopWhenAllDecided: true}, procs, all[7:], adv)
	return r.Run(nil)
}

func benchE7() sim.Metrics {
	rng := ids.NewRand(7)
	all := ids.Sparse(rng, 8)
	groupA := make(map[ids.ID]bool)
	for _, id := range all[:4] {
		groupA[id] = true
	}
	var procs []async.Process
	for j, id := range all {
		v := 0
		if j < 4 {
			v = 1
		}
		procs = append(procs, async.NewTimeoutQuorum(id, v, 2.0))
	}
	s := async.NewScheduler(procs, async.PartitionDelay(groupA, 0.25, 100))
	events := s.Run(1e6)
	return sim.Metrics{MessagesDelivered: int64(events)}
}

func benchE8() sim.Metrics {
	const k = 32
	rng := ids.NewRand(8)
	all := ids.Sparse(rng, 7)
	var procs []sim.Process
	for _, id := range all[:5] {
		inputs := make(map[parallel.PairID]parallel.Val, k)
		for p := 0; p < k; p++ {
			inputs[parallel.PairID(p+1)] = parallel.V(fmt.Sprintf("v%d", p))
		}
		procs = append(procs, parallel.NewNode(id, inputs))
	}
	adv := adversary.ParaSplit{Pair: 1, X1: parallel.V("a"), X2: parallel.V("b"), All: all}
	r := sim.NewRunner(sim.Config{StopWhenAllDecided: true}, procs, all[5:], adv)
	return r.Run(nil)
}

func benchE9() sim.Metrics {
	rng := ids.NewRand(9)
	all := ids.Sparse(rng, 7)
	var procs []sim.Process
	for j, id := range all[:5] {
		witness := make(map[int][]string)
		for r := 1; r <= 40; r++ {
			if r%5 == j {
				witness[r] = []string{fmt.Sprintf("e%d-%d", j, r)}
			}
		}
		procs = append(procs, dynamic.New(dynamic.Config{ID: id, Founders: all, Witness: witness}))
	}
	adv := adversary.DynEquivEvent{All: all, Every: 3}
	r := sim.NewRunner(sim.Config{MaxRounds: 40}, procs, all[5:], adv)
	return r.Run(nil)
}

func benchE10() sim.Metrics {
	rng := ids.NewRand(10 + 70)
	all := ids.Sparse(rng, 7)
	correct := all[:5]
	var procs []*consensus.Node
	for j, id := range correct {
		x := 1.0
		if j == len(correct)-1 {
			x = 0
		}
		procs = append(procs, consensus.New(id, x))
	}
	adv := adversary.ConsStaircase{X: 1, Boost: correct[:3], Lonely: correct[0]}
	r := sim.NewTypedRunner(sim.Config{MaxRounds: 200, StopWhenAllDecided: true}, procs, all[5:], adv, consensus.WireCodec())
	return r.Run(nil)
}

// BenchResult is one workload's measured perf snapshot. AllocsPerOp and
// BytesPerOp are per complete protocol run; MsgsPerSec is the delivered
// message throughput of a single sequential run.
type BenchResult struct {
	ID          string  `json:"id"`
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Rounds      int     `json:"rounds"`
	Msgs        int64   `json:"msgs"`
	MsgsPerSec  float64 `json:"msgs_per_sec"`
}

// BenchSnapshot is the serialized form of one `-bench-json` run.
type BenchSnapshot struct {
	Schema    string        `json:"schema"`
	Label     string        `json:"label,omitempty"`
	GoVersion string        `json:"go_version"`
	Results   []BenchResult `json:"results"`
}

// BenchSchema identifies the snapshot format.
const BenchSchema = "idonly-bench/1"

// RunBenchSnapshot measures every workload whose id is in want (nil or
// empty means all) and returns the snapshot. Timings are
// machine-dependent; allocation counts are deterministic per Go
// version and are what the regression gate compares.
func RunBenchSnapshot(label string, want map[string]bool) BenchSnapshot {
	snap := BenchSnapshot{Schema: BenchSchema, Label: label, GoVersion: runtime.Version()}
	for _, w := range BenchWorkloads() {
		if len(want) > 0 && !want[w.ID] {
			continue
		}
		var last sim.Metrics
		run := w.Run
		br := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				last = run()
			}
		})
		ns := float64(br.T.Nanoseconds()) / float64(br.N)
		res := BenchResult{
			ID:          w.ID,
			Name:        w.Name,
			NsPerOp:     ns,
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
			Rounds:      last.Rounds,
			Msgs:        last.MessagesDelivered,
		}
		if ns > 0 {
			res.MsgsPerSec = float64(last.MessagesDelivered) / (ns / 1e9)
		}
		snap.Results = append(snap.Results, res)
	}
	return snap
}

// WriteJSON emits the snapshot as indented JSON.
func (s BenchSnapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadBenchSnapshot parses a snapshot previously written by WriteJSON.
func ReadBenchSnapshot(r io.Reader) (BenchSnapshot, error) {
	var s BenchSnapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return s, fmt.Errorf("bench snapshot: %w", err)
	}
	if s.Schema != BenchSchema {
		return s, fmt.Errorf("bench snapshot: unknown schema %q", s.Schema)
	}
	return s, nil
}

// CompareBenchSnapshots checks cur against base and returns one error
// line per workload whose allocs/op regressed by more than allocFactor
// (e.g. 2.0 means "fail when allocations more than doubled") or whose
// ns/op regressed by more than nsFactor (0 disables the timing gate;
// CI uses 1.5).
//
// The timing gate is *shape-relative*: raw ns/op is machine-dependent
// (the checked-in baselines come from the dev container, CI runs on
// whatever runner it gets), so each workload's cur/base timing ratio
// is normalized by the median ratio across all matched workloads,
// clamped to at least 1 — a slower machine cancels out, while a
// faster machine (or a PR that speeds most workloads up) never raises
// the bar for the rest, so a pure improvement can never fail the
// gate. The flip side is inherent to relative gating: a regression
// broad enough to move the median partially hides itself; the
// allocs/op gate and the checked-in snapshots are the absolute
// record.
//
// Coverage is one-sided: a workload present only in cur is ignored
// (the set may grow over time), but every baseline workload must
// appear in cur — a silently vanished workload would let a regression
// hide by deletion, so it fails the gate. Callers measuring a
// deliberate subset must prune the baseline to that subset first (the
// bench binary does this for -run).
func CompareBenchSnapshots(base, cur BenchSnapshot, allocFactor, nsFactor float64) []string {
	baseline := make(map[string]BenchResult, len(base.Results))
	for _, r := range base.Results {
		baseline[r.ID] = r
	}
	measured := make(map[string]bool, len(cur.Results))
	for _, r := range cur.Results {
		measured[r.ID] = true
	}
	var failures []string
	for _, b := range base.Results {
		if !measured[b.ID] {
			failures = append(failures, fmt.Sprintf(
				"%s: baseline workload missing from the current run", b.ID))
		}
	}
	var ratios []float64
	for _, r := range cur.Results {
		if b, ok := baseline[r.ID]; ok && b.NsPerOp > 0 {
			ratios = append(ratios, r.NsPerOp/b.NsPerOp)
		}
	}
	machine := medianFloat(ratios) // the cross-machine speed factor
	if machine < 1 {
		machine = 1
	}
	for _, r := range cur.Results {
		b, ok := baseline[r.ID]
		if !ok {
			continue
		}
		if float64(r.AllocsPerOp) > allocFactor*float64(b.AllocsPerOp) {
			failures = append(failures, fmt.Sprintf(
				"%s: allocs/op %d vs baseline %d (> %.1fx)",
				r.ID, r.AllocsPerOp, b.AllocsPerOp, allocFactor))
		}
		if nsFactor > 0 && b.NsPerOp > 0 && machine > 0 &&
			r.NsPerOp/b.NsPerOp > nsFactor*machine {
			failures = append(failures, fmt.Sprintf(
				"%s: ns/op %.0f vs baseline %.0f — %.2fx vs the snapshot-median %.2fx (> %.1fx relative)",
				r.ID, r.NsPerOp, b.NsPerOp, r.NsPerOp/b.NsPerOp, machine, nsFactor))
		}
	}
	return failures
}

// medianFloat returns the median of xs (0 when empty).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
