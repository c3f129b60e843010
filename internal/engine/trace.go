package engine

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"idonly/internal/obs"
)

// Span is one per-scenario trace record: where a scenario sat in the
// sweep (Seq, Worker), what it cost phase by phase (build = protocol
// construction through churn compilation, run = the simulated rounds),
// and what it simulated. A sweep's span stream is the answer to "which
// cell of this 1920-scenario grid was slow, and in which phase" — one
// grep by digest or scenario name away.
//
// Cached spans (results served from the result store) have Cached set
// and zero build/run phases; WallNS is then the store lookup time.
type Span struct {
	Seq      int    `json:"seq"` // scenario index within the sweep
	Scenario string `json:"scenario"`
	Digest   string `json:"digest"` // Scenario.Digest, the store cache key
	Worker   int    `json:"worker"` // worker-pool slot that ran it (-1 for cache hits)
	Cached   bool   `json:"cached,omitempty"`
	BuildNS  int64  `json:"build_ns"`
	RunNS    int64  `json:"run_ns"`
	WallNS   int64  `json:"wall_ns"`
	Rounds   int    `json:"rounds"`
	Messages int64  `json:"messages"`
	Err      string `json:"err,omitempty"`
}

// SpanSink receives one Span per scenario, possibly concurrently from
// several workers; sinks must be safe for concurrent use.
type SpanSink func(Span)

// Obs is the engine's metric set over an obs.Registry. Construct once
// with NewObs and hand it to sweeps via Hooks; a nil *Obs disables
// every metric site at the cost of one nil check.
type Obs struct {
	Computed *Counter   // scenarios executed by the simulator
	Cached   *Counter   // scenarios served from a result store
	Errors   *Counter   // scenarios that ended in a validation error or invariant panic
	Rounds   *Counter   // simulated rounds, summed over computed scenarios
	Messages *Counter   // delivered messages, summed over computed scenarios
	Build    *Histogram // per-scenario build-phase seconds
	Run      *Histogram // per-scenario rounds-phase seconds
	Agg      *Histogram // per-sweep aggregation seconds
}

// Counter and Histogram re-export the obs types so packages using
// engine hooks need not import obs directly.
type (
	Counter   = obs.Counter
	Histogram = obs.Histogram
)

// NewObs registers the engine's metric families on reg and returns the
// hook set. Registration is idempotent: two calls over one registry
// share the same underlying series.
func NewObs(reg *obs.Registry) *Obs {
	scenarios := func(source string) *Counter {
		return reg.Counter("idonly_engine_scenarios_total",
			"Scenarios resolved, by source (computed by the simulator or served cached from a result store).",
			obs.L("source", source))
	}
	return &Obs{
		Computed: scenarios("computed"),
		Cached:   scenarios("cached"),
		Errors: reg.Counter("idonly_engine_scenario_errors_total",
			"Scenarios that ended in a validation error or a protocol-invariant panic."),
		Rounds: reg.Counter("idonly_engine_rounds_total",
			"Simulated protocol rounds, summed over computed scenarios."),
		Messages: reg.Counter("idonly_engine_messages_total",
			"Delivered messages (unicast-equivalent), summed over computed scenarios."),
		Build: reg.Histogram("idonly_engine_build_seconds",
			"Per-scenario build phase: protocol construction through churn-plan compilation.",
			obs.LatencyBuckets),
		Run: reg.Histogram("idonly_engine_run_seconds",
			"Per-scenario rounds phase: the simulated run itself.",
			obs.LatencyBuckets),
		Agg: reg.Histogram("idonly_engine_aggregate_seconds",
			"Per-sweep aggregation phase: bucketing results into groups.",
			obs.LatencyBuckets),
	}
}

// Hooks bundles a sweep's observability: metrics and/or a trace sink.
// The zero value is fully disabled — every instrumentation site in the
// engine and the store reduces to a nil check: the
// zero-overhead-when-off contract.
type Hooks struct {
	Obs  *Obs
	Span SpanSink

	// Run, when set, receives live progress: a ShardStart per computed
	// scenario and a ScenarioDone per scenario, cached or not. The
	// progress API's watch streams and the slow-scenario watchdog read
	// the record concurrently; all of its methods are nil-safe.
	Run *obs.RunRecord
}

// Enabled reports whether any hook is installed; callers that must
// pay setup cost per scenario (a time.Now before a store lookup, say)
// gate on it.
func (h Hooks) Enabled() bool { return h.Obs != nil || h.Span != nil || h.Run != nil }

// observe reports one computed scenario to the hook set.
func (h Hooks) observe(worker, seq int, s Scenario, res *Result, ph phases) {
	h.Run.ScenarioDone(worker, false, res.Err != "")
	if o := h.Obs; o != nil {
		o.Computed.Inc()
		if res.Err != "" {
			o.Errors.Inc()
		}
		o.Rounds.Add(int64(res.Rounds))
		o.Messages.Add(res.MessagesDelivered)
		o.Build.Observe(float64(ph.buildNS) / 1e9)
		o.Run.Observe(float64(ph.roundsNS) / 1e9)
	}
	if h.Span != nil {
		h.Span(Span{
			Seq:      seq,
			Scenario: res.Scenario.Name,
			Digest:   s.Digest(),
			Worker:   worker,
			BuildNS:  ph.buildNS,
			RunNS:    ph.roundsNS,
			WallNS:   res.WallNS,
			Rounds:   res.Rounds,
			Messages: res.MessagesDelivered,
			Err:      res.Err,
		})
	}
}

// ObserveCached reports one store-served scenario to the hook set; the
// result store calls this for cache hits so traced sweeps show every
// cell, computed or not. wallNS is the store lookup time.
func (h Hooks) ObserveCached(seq int, digest string, res *Result, wallNS int64) {
	h.Run.ScenarioDone(-1, true, res.Err != "")
	if h.Obs != nil {
		h.Obs.Cached.Inc()
		if res.Err != "" {
			h.Obs.Errors.Inc()
		}
	}
	if h.Span != nil {
		h.Span(Span{
			Seq:      seq,
			Scenario: res.Scenario.Name,
			Digest:   digest,
			Worker:   -1,
			Cached:   true,
			WallNS:   wallNS,
			Rounds:   res.Rounds,
			Messages: res.MessagesDelivered,
			Err:      res.Err,
		})
	}
}

// RunHooked executes the scenario like Run while reporting phase
// metrics and a span to h. worker and seq label the span with the
// worker-pool slot and the scenario's index in the sweep.
func (s Scenario) RunHooked(worker, seq int, h Hooks) Result {
	if !h.Enabled() {
		return s.run(nil)
	}
	if h.Run != nil {
		// Announce the scenario before it computes so progress watchers
		// and the slow-scenario watchdog can see what each shard holds.
		sd := s.withDefaults()
		h.Run.ShardStart(worker, seq, sd.Name, s.Digest())
	}
	var ph phases
	res := s.run(&ph)
	h.observe(worker, seq, s, &res, ph)
	return res
}

// Aggregate is the package-level Aggregate plus the aggregation-phase
// timing; the store's cached sweeps use it so warm runs show up in the
// same histogram as cold ones.
func (h Hooks) Aggregate(results []Result) []Group {
	if h.Obs == nil {
		return Aggregate(results)
	}
	start := time.Now() //lint:wallclock aggregation-phase histogram; observability only
	groups := Aggregate(results)
	h.Obs.Agg.ObserveSince(start)
	return groups
}

// ---------------------------------------------------------------------
// Trace files: reading and summarizing span streams
// ---------------------------------------------------------------------

// ReadSpans parses an NDJSON stream of trace records, accepting both
// bare Span lines (idonly sweep -trace-out) and {"span": {...}}
// wrapper lines (the /v1/sweep?trace=1 response stream). Lines that
// are neither — result lines, trailers, blanks — are skipped, so a
// whole sweep response pipes straight in.
func ReadSpans(r io.Reader) ([]Span, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20) // result lines can be large
	var spans []Span
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var wrapped struct {
			Span *Span `json:"span"`
		}
		if err := json.Unmarshal(line, &wrapped); err == nil && wrapped.Span != nil {
			spans = append(spans, *wrapped.Span)
			continue
		}
		var sp Span
		if err := json.Unmarshal(line, &sp); err == nil && sp.Digest != "" {
			spans = append(spans, sp)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("engine: reading trace: %w", err)
	}
	return spans, nil
}

// TraceSummary aggregates a span stream: totals per phase and the
// cache/error split. The phase totals are CPU-time-ish sums over
// scenarios, not wall time — a sweep on W workers spends roughly
// total/W of wall clock.
type TraceSummary struct {
	Spans    int
	Cached   int
	Errors   int
	BuildNS  int64
	RunNS    int64
	WallNS   int64
	Rounds   int64
	Messages int64
}

// SummarizeSpans folds the spans into totals.
func SummarizeSpans(spans []Span) TraceSummary {
	var t TraceSummary
	t.Spans = len(spans)
	for _, sp := range spans {
		if sp.Cached {
			t.Cached++
		}
		if sp.Err != "" {
			t.Errors++
		}
		t.BuildNS += sp.BuildNS
		t.RunNS += sp.RunNS
		t.WallNS += sp.WallNS
		t.Rounds += int64(sp.Rounds)
		t.Messages += sp.Messages
	}
	return t
}

// SlowestSpans returns the k spans with the largest WallNS, slowest
// first; ties break by sweep order so the result is deterministic. It
// returns no spans for k ≤ 0.
func SlowestSpans(spans []Span, k int) []Span {
	if k <= 0 {
		return nil
	}
	out := make([]Span, len(spans))
	copy(out, spans)
	sort.Slice(out, func(i, j int) bool {
		if out[i].WallNS != out[j].WallNS {
			return out[i].WallNS > out[j].WallNS
		}
		return out[i].Seq < out[j].Seq
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}
