package main

import (
	"fmt"
	"os"

	"idonly/internal/engine"
	"idonly/internal/service"
)

// metricDef declares one metric; BENCHMARK.json carries the same
// table. Bound is the share of the parent's median by which an
// end-to-end metric may get worse before a change is rejected;
// per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system would see, measured
// with tracing off, on every workload. The timing bounds are as wide
// as the contract allows because this sandbox's host takes CPU away in
// phases that last minutes (README.md, Noise).
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"op_p50_ms", "ms", lower, 0.25},
	{"scenarios_per_s", "1/s", higher, 0.25},
	{"cpu_ms_per_op", "ms", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.15},
}

// simItems are sim-scale's seven runs, in op order.
var simItems = []string{"ring10k", "consensus100", "rbroadcast128", "rotor62", "parallel62", "approx62", "dynamic20churn"}

// decorated are the sim-scale items the traced pass re-runs behind
// step-timing decorators, by protocol.
var decorated = []string{"ring", "consensus", "rotor", "parallel"}

// perLayer are the metrics of single layers, from the traced pass. A
// workload that does not exercise a layer reports 0 for its metrics.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"service.roundtrip_ns", "ns", lower, 0},
		{"service.self_ns", "ns", lower, 0},
		{"service.http_echo_ns", "ns", lower, 0},
		{"service.new_ns", "ns", lower, 0},
		{"service.op_tail_ms", "ms", lower, 0},
		{"service.op_tail_pct", "%", higher, 0},
		{"service.op_samples", "count", higher, 0},
		{"service.coalesced_ratio", "ratio", higher, 0},
		{"service.dup_covered_ratio", "ratio", higher, 0},
		{"service.rejected", "count", lower, 0},
		{"service.sweeps", "1/op", lower, 0},
		{"service.cache_hits", "1/op", higher, 0},
		{"service.cache_misses", "1/op", lower, 0},

		{"store.open_ns", "ns", lower, 0},
		{"store.get_ns", "ns", lower, 0},
		{"store.cached_runall_ns", "ns", lower, 0},
		{"store.putbatch288_ns", "ns", lower, 0},
		{"store.put1_ns", "ns", lower, 0},
		{"store.bytes_per_result", "B", lower, 0},
		{"store.hit_ratio", "ratio", higher, 0},
		{"store.gets", "1/op", lower, 0},
		{"store.hits", "1/op", higher, 0},
		{"store.puts", "1/op", lower, 0},
		{"store.hot_hits", "1/op", higher, 0},
		{"store.compactions", "count", lower, 0},
		{"store.evicted", "count", lower, 0},

		{"engine.expand_ns", "ns", lower, 0},
		{"engine.digest_ns", "ns", lower, 0},
		{"engine.aggregate_ns", "ns", lower, 0},
		{"engine.render_ns", "ns", lower, 0},
		{"engine.runall_ns", "ns", lower, 0},
		{"engine.build_ns", "ns", lower, 0},
		{"engine.run_ns", "ns", lower, 0},
		{"engine.pool_busy_ratio", "ratio", higher, 0},
		{"engine.rounds", "count", lower, 0},
		{"engine.msgs", "count", lower, 0},

		{"sim.msgs_per_s", "1/s", higher, 0},
		{"sim.msgs_per_s.typed", "1/s", higher, 0},
		{"sim.msgs_per_s.reference", "1/s", higher, 0},
		{"sim.deliver_ns.typed", "ns", lower, 0},
		{"sim.deliver_ns.reference", "ns", lower, 0},
		{"sim.msgs_dropped", "count", lower, 0},
		{"sim.inbox_grows", "count", lower, 0},
		{"sim.decorated_discarded", "count", lower, 0},

		{"core.step_calls", "count", lower, 0},
		{"adversary.step_ns", "ns", lower, 0},
		{"adversary.sends", "count", lower, 0},
		{"obs.hooks_on_ratio", "ratio", lower, 0},
		{"async.events_per_s", "1/s", higher, 0},

		{"process.mallocs_per_op", "count", lower, 0},
		{"process.alloc_mb_per_op", "MB", lower, 0},
		{"process.gc_cycles", "count", lower, 0},
		{"process.gc_pause_ms", "ms", lower, 0},
		{"process.peak_rss_mb", "MB", lower, 0},

		{"machine.calib_ms_before", "ms", lower, 0},
		{"machine.calib_ms_after", "ms", lower, 0},
		{"bench.oracle_s", "s", lower, 0},
		{"bench.trace_overhead_ratio", "ratio", lower, 0},
		{"bench.failed_ratio", "ratio", lower, 0},
	}
	for _, p := range engine.Protocols() {
		defs = append(defs, metricDef{"engine.run_ns." + p, "ns", lower, 0})
	}
	for _, it := range simItems {
		defs = append(defs, metricDef{"sim.run_ns." + it, "ns", lower, 0})
	}
	for _, p := range decorated {
		defs = append(defs, metricDef{"core.step_ns." + p, "ns", lower, 0})
	}
	return defs
}()

// metrics holds measured values by declared name.
type metrics map[string]float64

// set stores a value under a name that must be declared in defs: a
// typo in a metric name is a bug, caught by the smoke test.
func (m metrics) set(name string, v float64) {
	if _, ok := m[name]; !ok {
		panic("benchmark: undeclared metric " + name)
	}
	m[name] = v
}

// newMetrics returns every metric of defs at 0.
func newMetrics(defs []metricDef) metrics {
	m := make(metrics, len(defs))
	for _, d := range defs {
		m[d.Name] = 0
	}
	return m
}

// reportCounters turns the service's public counters (GET /v1/stats,
// store.Stats inside it) before and after a stretch of ops into
// per-op counts.
func reportCounters(m metrics, before, after service.Counters, ops int) {
	per := func(a, b int64) float64 { return float64(a-b) / float64(max(ops, 1)) }
	m.set("service.sweeps", per(after.Sweeps, before.Sweeps))
	m.set("service.cache_hits", per(after.CacheHits, before.CacheHits))
	m.set("service.cache_misses", per(after.CacheMisses, before.CacheMisses))
	m.set("service.rejected", float64(after.SweepsRejected+after.RateLimited-before.SweepsRejected-before.RateLimited))
	m.set("store.gets", per(after.Store.Gets, before.Store.Gets))
	m.set("store.hits", per(after.Store.Hits, before.Store.Hits))
	m.set("store.puts", per(after.Store.Puts, before.Store.Puts))
	m.set("store.hot_hits", per(after.Store.HotHits, before.Store.HotHits))
	m.set("store.compactions", float64(after.Store.Compactions-before.Store.Compactions))
	m.set("store.evicted", float64(after.Store.Evicted-before.Store.Evicted))
	if gets := after.Store.Gets - before.Store.Gets; gets > 0 {
		m.set("store.hit_ratio", float64(after.Store.Hits-before.Store.Hits)/float64(gets))
	}
	m.set("store.bytes_per_result", float64(after.Store.LogBytes)/float64(max(after.Store.Records, 1)))
}

// reportTail reports the client-side op times' tail at the highest
// percentile that has at least ten samples beyond it, and says which
// percentile that is and over how many samples; with too few samples
// for any tail the three stay 0.
func reportTail(m metrics, ms []float64) {
	m.set("service.op_samples", float64(len(ms)))
	if p, ok := highestPercentile(len(ms)); ok {
		m.set("service.op_tail_pct", p)
		m.set("service.op_tail_ms", percentile(ms, p))
	}
}

// logf reports a failed op or a discarded measurement on standard
// error; standard output carries only the result.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}
