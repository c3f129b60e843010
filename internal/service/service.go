// Package service is the sweep-serving HTTP layer: a net/http handler
// (no dependencies outside the standard library) that runs scenario
// grids through the content-addressed result store and serves
// individual results by digest.
//
// Endpoints (all under /v1 unless noted):
//
//	POST /v1/sweep          run a grid; body is a SweepRequest, response
//	                        is an NDJSON stream (one engine.Result per
//	                        line, then one SweepTrailer line) — or, with
//	                        ?format=canonical, the byte-stable canonical
//	                        report, or ?format=report the full timed one.
//	                        With ?trace=1 (NDJSON only) the stream also
//	                        carries one {"span": ...} line per scenario
//	                        between the results and the trailer.
//	GET  /v1/result/{digest} one stored result by scenario digest
//	GET  /v1/healthz        liveness + store record count
//	GET  /v1/stats          hit/miss/latency counters + store stats
//	GET  /v1/runs           live + recently completed run records
//	GET  /v1/runs/{id}      one run's progress snapshot
//	GET  /v1/runs/{id}/watch NDJSON stream of progress snapshots,
//	                        emitted as the done-count advances, until
//	                        the run completes (?interval_ms tunes the
//	                        poll cadence, default 100)
//	GET  /metrics           Prometheus text exposition of the registry
//	GET  /debug/events      flight-recorder dump, NDJSON in seq order
//	/debug/pprof/*          runtime profiles, when Config.EnablePprof
//
// Sweeps are bounded three ways: at most Config.MaxInFlight run
// concurrently (excess requests get 429 + a Retry-After derived from
// the observed sweep-latency median rather than queueing without
// bound), a single request may expand to at most Config.MaxScenarios
// scenarios (413 beyond that), and with Config.RateRPS set each client
// host gets a token bucket over sweep admissions (429 + the honest
// time to the next token). Concurrent sweeps that share scenarios
// compute each shared one once: the store's per-digest flights
// (store.CachedRunAll) are the only coalescer. Graceful shutdown is
// the caller's job via http.Server.Shutdown; the handler holds no state
// that outlives a request.
//
// Every request is counted in idonly_http_requests_total{endpoint,code}
// and timed in idonly_http_request_seconds{endpoint}; the engine and
// store families (idonly_engine_*, idonly_store_*) live on the same
// registry, so one /metrics scrape covers all three tiers.
package service

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	netpprof "net/http/pprof"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"idonly/internal/engine"
	"idonly/internal/obs"
	"idonly/internal/store"
)

// Config configures the service.
type Config struct {
	Store        *store.Store
	Workers      int // worker-pool width per sweep; <= 0 means GOMAXPROCS
	MaxInFlight  int // concurrent sweeps; <= 0 means 2
	MaxScenarios int // per-request expansion cap; <= 0 means 20000

	// MaxN bounds a single scenario's size (<= 0 means 256 nodes),
	// counting a cell's size plus its churn spec's joins, as maxRounds
	// bounds its rounds. The scenario-count cap alone is not enough:
	// one scenario with a six-figure N would hold an in-flight slot for
	// hours, and sweeps are not cancellable mid-run.
	MaxN int

	// RunHistory bounds the ring of completed runs GET /v1/runs
	// retains (<= 0 means 64).
	RunHistory int

	// EventBuffer is how many events the flight recorder behind
	// GET /debug/events keeps (<= 0 means 1024).
	EventBuffer int

	// ScenarioDeadline arms the slow-scenario watchdog: while a sweep
	// runs, any worker shard that holds one scenario longer than this
	// records a watchdog_slow_scenario event (with the offending
	// ScenarioDigest) and dumps all goroutine stacks to WatchdogDump
	// (default os.Stderr), once per (shard, scenario). Zero disables
	// the watchdog.
	ScenarioDeadline time.Duration
	WatchdogDump     io.Writer

	// EnablePprof mounts net/http/pprof under /debug/pprof. Off by
	// default: profiles expose timing internals and cost CPU to take,
	// so they are opt-in per process.
	EnablePprof bool

	// RateRPS enables per-client rate limiting on POST /v1/sweep: each
	// RemoteAddr host accrues RateRPS sweep admissions per second up to
	// RateBurst (<= 0 means ceil(RateRPS), floor 1). Beyond that the
	// client gets 429 with Retry-After set to the real time until its
	// next token. Zero disables limiting. Read-only endpoints
	// (/metrics, healthz, stats, runs) are never limited: starving the
	// scrapers during an incident would be self-sabotage.
	RateRPS   float64
	RateBurst int
}

// SweepRequest is the POST /v1/sweep body: either a named preset or a
// full grid spec, with an optional churn-axis override in the same
// compact syntax `idonly sweep -churn` accepts (engine.ParseChurn).
type SweepRequest struct {
	Preset string       `json:"preset,omitempty"`
	Grid   *engine.Grid `json:"grid,omitempty"`
	Churn  string       `json:"churn,omitempty"`
}

// SweepTrailer is the final NDJSON line of a sweep response: the
// aggregates plus how the sweep split between cache and compute.
type SweepTrailer struct {
	Grid         string         `json:"grid,omitempty"`
	Scenarios    int            `json:"scenarios"`
	Groups       []engine.Group `json:"groups"`
	Cache        store.RunStats `json:"cache"`
	ReportDigest string         `json:"report_digest"` // Report.ContentDigest of the canonical form
	ElapsedNS    int64          `json:"elapsed_ns"`
}

// EndpointLatency is one endpoint's HTTP-latency digest in the
// GET /v1/stats payload: histogram-estimated p50/p99 over the same
// samples /metrics exposes as raw buckets.
type EndpointLatency struct {
	Endpoint string `json:"endpoint"`
	Count    int64  `json:"count"`
	P50NS    int64  `json:"p50_ns"`
	P99NS    int64  `json:"p99_ns"`
}

// Counters is the GET /v1/stats payload. Every field is read from the
// metrics registry; the JSON names predate the registry and stay
// byte-compatible. SweepNSP50/P99 are histogram-derived estimates over
// the same samples SweepNSTotal sums.
type Counters struct {
	Sweeps          int64       `json:"sweeps"`           // sweeps completed
	SweepsInFlight  int64       `json:"sweeps_in_flight"` // currently running
	SweepsRejected  int64       `json:"sweeps_rejected"`  // 429s from the in-flight bound
	RateLimited     int64       `json:"rate_limited"`     // 429s from the per-client rate limit
	ScenariosServed int64       `json:"scenarios_served"` // total scenarios across sweeps
	CacheHits       int64       `json:"cache_hits"`       // scenarios served from the store
	CacheMisses     int64       `json:"cache_misses"`     // scenarios computed
	ResultLookups   int64       `json:"result_lookups"`   // GET /v1/result calls
	SweepNSTotal    int64       `json:"sweep_ns_total"`   // cumulative sweep wall time
	LastSweepNS     int64       `json:"last_sweep_ns"`    // latency of the most recent sweep
	SweepNSP50      int64       `json:"sweep_ns_p50"`     // histogram-estimated median sweep latency
	SweepNSP99      int64       `json:"sweep_ns_p99"`     // histogram-estimated p99 sweep latency
	Store           store.Stats `json:"store"`

	// HTTP digests the per-endpoint request-latency histograms —
	// quantiles instead of the raw bucket counts /metrics serves.
	// Endpoints with no traffic yet are omitted; entries sort by
	// endpoint name.
	HTTP []EndpointLatency `json:"http"`
}

// Service is the handler. Safe for concurrent use.
type Service struct {
	cfg    Config
	mux    *http.ServeMux
	sem    chan struct{}
	reg    *obs.Registry
	eo     *engine.Obs
	runs   *obs.RunRegistry
	events *obs.Recorder

	sweeps       *obs.Counter   // idonly_sweeps_total
	rejected     *obs.Counter   // idonly_sweeps_rejected_total
	scenarios    *obs.Counter   // idonly_sweep_scenarios_total
	lookups      *obs.Counter   // idonly_result_lookups_total
	sweepNSTotal *obs.Counter   // idonly_sweep_wall_ns_total
	lastSweepNS  *obs.Gauge     // idonly_sweep_last_ns
	sweepLat     *obs.Histogram // idonly_sweep_seconds
	watchdogHits *obs.Counter   // idonly_watchdog_fires_total

	// limiter is the per-client token bucket (nil when RateRPS <= 0).
	limiter     *rateLimiter
	rateLimited *obs.Counter // idonly_ratelimit_rejected_total

	// httpLat holds the per-endpoint latency series, preregistered for
	// the full bounded endpoint-label set so ServeHTTP observes into a
	// held pointer instead of taking the registry lock per request.
	httpLat map[string]*obs.Histogram
}

// endpointLabels is the full bounded label set endpointLabel can emit.
var endpointLabels = []string{
	"sweep", "result", "healthz", "stats", "runs", "metrics", "events", "pprof", "other",
}

const (
	reqHelp    = "HTTP requests, by endpoint and status code."
	reqLatHelp = "HTTP request latency by endpoint, seconds."
)

// New builds the service over an open store, registering the service,
// engine, and store metric families on a registry of its own.
func New(cfg Config) *Service {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 2
	}
	if cfg.MaxScenarios <= 0 {
		cfg.MaxScenarios = 20000
	}
	if cfg.MaxN <= 0 {
		cfg.MaxN = 256
	}
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = 1024
	}
	if cfg.WatchdogDump == nil {
		cfg.WatchdogDump = os.Stderr
	}
	reg := obs.NewRegistry()
	events := obs.NewRecorder(cfg.EventBuffer)
	s := &Service{cfg: cfg, sem: make(chan struct{}, cfg.MaxInFlight), reg: reg,
		runs: obs.NewRunRegistry(cfg.RunHistory), events: events,
		limiter: newRateLimiter(cfg.RateRPS, cfg.RateBurst)}
	s.eo = engine.NewObs(reg)
	cfg.Store.Instrument(reg)
	cfg.Store.RecordEvents(events)
	s.sweeps = reg.Counter("idonly_sweeps_total", "Sweeps completed.")
	s.rejected = reg.Counter("idonly_sweeps_rejected_total",
		"Sweeps rejected by the in-flight bound (HTTP 429).")
	s.scenarios = reg.Counter("idonly_sweep_scenarios_total",
		"Scenarios served across all sweeps, cached or computed.")
	s.lookups = reg.Counter("idonly_result_lookups_total",
		"GET /v1/result calls.")
	s.sweepNSTotal = reg.Counter("idonly_sweep_wall_ns_total",
		"Cumulative sweep wall time, nanoseconds.")
	s.lastSweepNS = reg.Gauge("idonly_sweep_last_ns",
		"Wall time of the most recent sweep, nanoseconds.")
	s.sweepLat = reg.Histogram("idonly_sweep_seconds",
		"Sweep wall time, seconds.", obs.LatencyBuckets)
	reg.GaugeFunc("idonly_sweeps_in_flight",
		"Sweeps currently running.",
		func() float64 { return float64(len(s.sem)) })
	s.watchdogHits = reg.Counter("idonly_watchdog_fires_total",
		"Slow-scenario watchdog fires: shards that held one scenario past the deadline.")
	s.rateLimited = reg.Counter("idonly_ratelimit_rejected_total",
		"Sweeps rejected by the per-client rate limit (HTTP 429).")
	s.httpLat = make(map[string]*obs.Histogram, len(endpointLabels))
	for _, ep := range endpointLabels {
		s.httpLat[ep] = reg.Histogram("idonly_http_request_seconds", reqLatHelp,
			obs.LatencyBuckets, obs.L("endpoint", ep))
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/result/{digest}", s.handleResult)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/runs", s.handleRuns)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleRun)
	s.mux.HandleFunc("GET /v1/runs/{id}/watch", s.handleRunWatch)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/events", s.handleEvents)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", netpprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", netpprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", netpprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", netpprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", netpprof.Trace)
	}
	return s
}

// Registry returns the registry the service records into; callers use
// it to add process-level families or render it out of band.
func (s *Service) Registry() *obs.Registry { return s.reg }

// Runs returns the run registry behind GET /v1/runs.
func (s *Service) Runs() *obs.RunRegistry { return s.runs }

// Events returns the flight recorder behind GET /debug/events.
func (s *Service) Events() *obs.Recorder { return s.events }

// endpointLabel maps a request path onto a bounded label set —
// digests, pprof profile names, and arbitrary junk paths must not mint
// unbounded metric series.
func endpointLabel(path string) string {
	switch {
	case path == "/v1/sweep":
		return "sweep"
	case strings.HasPrefix(path, "/v1/result/"):
		return "result"
	case path == "/v1/healthz":
		return "healthz"
	case path == "/v1/stats":
		return "stats"
	case path == "/v1/runs" || strings.HasPrefix(path, "/v1/runs/"):
		return "runs"
	case path == "/metrics":
		return "metrics"
	case path == "/debug/events":
		return "events"
	case strings.HasPrefix(path, "/debug/pprof"):
		return "pprof"
	default:
		return "other"
	}
}

// statusWriter records the response code for the request counter while
// forwarding Flush so NDJSON streaming keeps working through the wrap.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ep := endpointLabel(r.URL.Path)
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	// A panic unwinding past the handler is exactly the incident the
	// flight recorder exists for: dump it to stderr before net/http
	// swallows the goroutine, then re-panic so the connection still
	// aborts loudly.
	defer func() {
		if p := recover(); p != nil {
			s.events.Record("http_panic", obs.F("endpoint", ep))
			fmt.Fprintf(os.Stderr, "idonly serve: panic serving %s: %v\nflight recorder:\n", r.URL.Path, p)
			s.events.WriteNDJSON(os.Stderr)
			panic(p)
		}
	}()
	s.mux.ServeHTTP(sw, r)
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	// The latency series is preregistered per endpoint; only the
	// counter goes through the (idempotent) registry lookup, because
	// its label set also carries the response code.
	s.httpLat[ep].ObserveSince(start)
	s.reg.Counter("idonly_http_requests_total", reqHelp,
		obs.L("endpoint", ep), obs.L("code", strconv.Itoa(sw.code))).Inc()
	if sw.code >= http.StatusInternalServerError {
		s.events.Record("http_error",
			obs.F("endpoint", ep), obs.F("code", strconv.Itoa(sw.code)))
	}
}

// httpError writes a one-line JSON error body.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// resolveGrid turns a SweepRequest into a scenario list.
func (s *Service) resolveGrid(req *SweepRequest) ([]engine.Scenario, string, error) {
	var g engine.Grid
	switch {
	case req.Preset != "" && req.Grid != nil:
		return nil, "", fmt.Errorf("request sets both preset and grid")
	case req.Preset != "":
		var err error
		if g, err = engine.PresetGrid(req.Preset); err != nil {
			return nil, "", err
		}
	case req.Grid != nil:
		g = *req.Grid
	default:
		return nil, "", fmt.Errorf("request needs a preset name or a grid spec")
	}
	if req.Churn != "" {
		spec, err := engine.ParseChurn(req.Churn)
		if err != nil {
			return nil, "", err
		}
		g.Churns = []engine.Churn{spec}
	}
	// Bound the cross product arithmetically before materializing it: a
	// few-KB request body can name a grid whose expansion would not fit
	// in memory. Checked factor by factor so the partial product can
	// never overflow before the comparison.
	churns := len(g.Churns)
	if churns == 0 {
		churns = 1
	}
	product := int64(1)
	for _, k := range []int{len(g.Protocols), len(g.Adversaries), len(g.Sizes), churns, len(g.Seeds)} {
		if product *= int64(k); product > int64(s.cfg.MaxScenarios) {
			return nil, "", errTooLarge{n: product, max: s.cfg.MaxScenarios}
		}
	}
	for _, n := range g.Sizes {
		if n > s.cfg.MaxN {
			return nil, "", fmt.Errorf("size %d exceeds the per-scenario limit of %d nodes", n, s.cfg.MaxN)
		}
	}
	if g.MaxRounds > maxRounds {
		return nil, "", fmt.Errorf("max_rounds %d exceeds the limit of %d", g.MaxRounds, maxRounds)
	}
	specs := g.Scenarios()
	if len(specs) == 0 {
		return nil, "", fmt.Errorf("grid expands to zero scenarios")
	}
	for _, spec := range specs {
		// Joiners are nodes too: a cell's churn spec adds them on top of
		// its size (N ≤ MaxN above, so the subtraction cannot wrap).
		if spec.Churn != nil && spec.Churn.Joins > s.cfg.MaxN-spec.N {
			return nil, "", fmt.Errorf("size %d with %d joins exceeds the per-scenario limit of %d nodes", spec.N, spec.Churn.Joins, s.cfg.MaxN)
		}
		if err := spec.Validate(); err != nil {
			return nil, "", err
		}
	}
	return specs, g.Name, nil
}

type errTooLarge struct {
	n   int64
	max int
}

func (e errTooLarge) Error() string {
	return fmt.Sprintf("grid expands to at least %d scenarios (limit %d)", e.n, e.max)
}

// maxRounds bounds a single scenario's rounds, as Config.MaxN bounds
// its size.
const maxRounds = 100000

// maxSweepBody bounds the request body; the largest legitimate grid
// spec is a few KB of names and numbers.
const maxSweepBody = 1 << 20

// sweepRetryAfter derives the 429 Retry-After for the in-flight bound
// from the observed sweep-latency median — a slot frees up roughly one
// median sweep from now — clamped to [1, 30] seconds. With no samples
// yet (cold process) it falls back to 1.
func (s *Service) sweepRetryAfter() int {
	sec := int(math.Ceil(s.sweepLat.Quantile(0.5)))
	if sec < 1 {
		sec = 1
	}
	if sec > 30 {
		sec = 30
	}
	return sec
}

func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	// The rate limit runs before anything else: a client over its
	// budget should not even cost request parsing.
	if s.limiter != nil {
		host := clientHost(r.RemoteAddr)
		if wait, ok := s.limiter.allow(host, time.Now()); !ok {
			s.rateLimited.Inc()
			s.events.Record("ratelimit_reject", obs.F("client", host))
			secs := int(math.Ceil(wait.Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			httpError(w, http.StatusTooManyRequests,
				"client %s exceeds %g sweeps/sec", host, s.cfg.RateRPS)
			return
		}
	}
	// Reject everything rejectable — body, grid, format — before
	// taking an in-flight slot, so a slow or malformed request can
	// never pin a semaphore slot while legitimate sweeps get 429s.
	q := r.URL.Query()
	format := q.Get("format")
	switch format {
	case "", "ndjson", "canonical", "report":
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q (want ndjson, canonical or report)", format)
		return
	}
	traced := q.Get("trace") == "1"
	if traced && format != "" && format != "ndjson" {
		httpError(w, http.StatusBadRequest, "trace=1 requires the ndjson format")
		return
	}
	var req SweepRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSweepBody)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding sweep request: %v", err)
		return
	}
	specs, gridName, err := s.resolveGrid(&req)
	if err != nil {
		code := http.StatusBadRequest
		if _, ok := err.(errTooLarge); ok {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, "%v", err)
		return
	}

	// Identical concurrent sweeps each take their own slot; they still
	// simulate every shared scenario once, because CachedRunAll's
	// per-digest flights dedupe across callers.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		s.rejected.Inc()
		s.events.Record("sweep_reject",
			obs.F("reason", "in_flight_limit"),
			obs.F("scenarios", strconv.Itoa(len(specs))))
		w.Header().Set("Retry-After", strconv.Itoa(s.sweepRetryAfter()))
		httpError(w, http.StatusTooManyRequests, "%d sweeps already in flight", s.cfg.MaxInFlight)
		return
	}
	out, err := s.computeSweep(specs, gridName, traced)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "sweep failed: %v", err)
		return
	}
	w.Header().Set("X-Idonly-Run", out.runID)
	w.Header().Set("X-Idonly-Computed", strconv.Itoa(out.stats.Misses-out.stats.Coalesced))
	if out.stats.Misses > 0 && out.stats.Coalesced == out.stats.Misses {
		// Every miss was served by another request's in-flight
		// computation: this sweep simulated nothing itself.
		w.Header().Set("X-Idonly-Coalesced", "1")
	}
	s.renderSweep(w, format, out)
}

// sweepOutcome is one computed sweep, ready to render in any format.
type sweepOutcome struct {
	rep       *engine.Report
	stats     store.RunStats
	spans     []engine.Span // sorted by Seq
	elapsedNS int64
	runID     string
}

// computeSweep runs the grid through the cached engine with the full
// observability harness: a run record (progress API), the slow-scenario
// watchdog, flight-recorder events, and the sweep metric set. The run
// record and the watchdog are released on every exit, a panic out of
// the engine or the store included.
func (s *Service) computeSweep(specs []engine.Scenario, gridName string, traced bool) (sweepOutcome, error) {
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	run := s.runs.NewRun("sweep", gridName, len(specs), workers)
	defer run.Finish()
	s.events.Record("sweep_admit",
		obs.F("run", run.ID()),
		obs.F("scenarios", strconv.Itoa(len(specs))))
	if s.cfg.ScenarioDeadline > 0 {
		stopWatch := make(chan struct{})
		defer close(stopWatch)
		go s.watchdog(run, stopWatch)
	}

	hooks := engine.Hooks{Obs: s.eo, Run: run}
	var spanMu sync.Mutex
	var spans []engine.Span
	if traced {
		hooks.Span = func(sp engine.Span) {
			spanMu.Lock()
			spans = append(spans, sp)
			spanMu.Unlock()
		}
	}
	start := time.Now()
	rep, stats, err := store.CachedRunAll(s.cfg.Store, specs, engine.Options{
		Workers: s.cfg.Workers, Grid: gridName, Hooks: hooks,
	})
	if err != nil {
		s.events.Record("sweep_failed", obs.F("run", run.ID()))
		return sweepOutcome{}, err
	}
	elapsed := time.Since(start)
	s.events.Record("sweep_done",
		obs.F("run", run.ID()),
		obs.F("elapsed_ns", strconv.FormatInt(elapsed.Nanoseconds(), 10)),
		obs.F("cache_hits", strconv.Itoa(stats.Hits)),
		obs.F("coalesced", strconv.Itoa(stats.Coalesced)),
		obs.F("computed", strconv.Itoa(stats.Misses-stats.Coalesced)))
	s.sweeps.Inc()
	s.scenarios.Add(int64(len(specs)))
	s.sweepNSTotal.Add(elapsed.Nanoseconds())
	s.lastSweepNS.Set(elapsed.Nanoseconds())
	s.sweepLat.Observe(elapsed.Seconds())
	sort.Slice(spans, func(i, j int) bool { return spans[i].Seq < spans[j].Seq })
	return sweepOutcome{
		rep: rep, stats: stats, spans: spans,
		elapsedNS: elapsed.Nanoseconds(), runID: run.ID(),
	}, nil
}

// renderSweep writes one outcome in the requested format.
func (s *Service) renderSweep(w http.ResponseWriter, format string, out sweepOutcome) {
	switch format {
	case "", "ndjson":
		s.writeNDJSON(w, out.rep, out.stats, out.spans, out.elapsedNS)
	case "canonical":
		b, err := out.rep.CanonicalBytes()
		if err != nil {
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	case "report":
		w.Header().Set("Content-Type", "application/json")
		out.rep.WriteJSON(w)
	}
}

// spanLine wraps a Span for the NDJSON stream, so trace lines are
// distinguishable from result lines by their single "span" key.
type spanLine struct {
	Span *engine.Span `json:"span"`
}

// writeNDJSON streams the per-scenario results one JSON object per
// line, in deterministic input order, then (for traced sweeps) one
// span line per scenario in the order given (computeSweep sorts them
// by Seq), then the trailer with aggregates and cache stats. Lines are
// flushed as written so a slow client sees results as they serialize.
func (s *Service) writeNDJSON(w http.ResponseWriter, rep *engine.Report, stats store.RunStats, spans []engine.Span, elapsed int64) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	// Result lines are the bytes json.Encoder writes, from the engine's
	// hand-written codec.
	var line []byte
	for i := range rep.Results {
		line = append(engine.AppendResultJSON(line[:0], &rep.Results[i]), '\n')
		if _, err := w.Write(line); err != nil {
			return // client went away; nothing sensible to do mid-stream
		}
		if flusher != nil && i%64 == 63 {
			flusher.Flush()
		}
	}
	enc := json.NewEncoder(w)
	if spans != nil {
		for i := range spans {
			if err := enc.Encode(spanLine{Span: &spans[i]}); err != nil {
				return
			}
			if flusher != nil && i%64 == 63 {
				flusher.Flush()
			}
		}
	}
	digest, err := rep.ContentDigest()
	if err != nil {
		return
	}
	enc.Encode(&SweepTrailer{
		Grid:         rep.Grid,
		Scenarios:    rep.Scenarios,
		Groups:       rep.Groups,
		Cache:        stats,
		ReportDigest: digest,
		ElapsedNS:    elapsed,
	})
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	s.lookups.Inc()
	digest := strings.ToLower(r.PathValue("digest"))
	if len(digest) != 64 || strings.Trim(digest, "0123456789abcdef") != "" {
		httpError(w, http.StatusBadRequest, "digest must be 64 hex characters")
		return
	}
	res, ok, err := s.cfg.Store.Get(digest)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !ok {
		httpError(w, http.StatusNotFound, "no result for %s", digest[:12])
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(&res)
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"ok":      true,
		"results": s.cfg.Store.Len(),
	})
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	s.reg.WritePrometheus(w)
}

// Snapshot returns the current counters (also served at /v1/stats).
func (s *Service) Snapshot() Counters {
	var http_ []EndpointLatency
	for _, ep := range endpointLabels {
		h := s.httpLat[ep]
		n := h.Count()
		if n == 0 {
			continue
		}
		http_ = append(http_, EndpointLatency{
			Endpoint: ep,
			Count:    n,
			P50NS:    int64(h.Quantile(0.5) * 1e9),
			P99NS:    int64(h.Quantile(0.99) * 1e9),
		})
	}
	sort.Slice(http_, func(i, j int) bool { return http_[i].Endpoint < http_[j].Endpoint })
	return Counters{
		HTTP:            http_,
		Sweeps:          s.sweeps.Value(),
		SweepsInFlight:  int64(len(s.sem)),
		SweepsRejected:  s.rejected.Value(),
		RateLimited:     s.rateLimited.Value(),
		ScenariosServed: s.scenarios.Value(),
		CacheHits:       s.eo.Cached.Value(),
		CacheMisses:     s.eo.Computed.Value(),
		ResultLookups:   s.lookups.Value(),
		SweepNSTotal:    s.sweepNSTotal.Value(),
		LastSweepNS:     s.lastSweepNS.Value(),
		SweepNSP50:      int64(s.sweepLat.Quantile(0.5) * 1e9),
		SweepNSP99:      int64(s.sweepLat.Quantile(0.99) * 1e9),
		Store:           s.cfg.Store.Stats(),
	}
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	snap := s.Snapshot()
	enc.Encode(&snap)
}
