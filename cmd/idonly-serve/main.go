// Command idonly-serve exposes the scenario engine and the
// content-addressed result store over HTTP: sweeps POSTed to it are
// served from the store where possible and computed (then persisted)
// where not, so every grid is simulated at most once across all
// clients, processes and restarts.
//
// Usage:
//
//	idonly-serve -store ./results                 # listen on :8080
//	idonly-serve -addr :9000 -store ./results -workers 8 -max-inflight 4
//	idonly-serve -store ./results -pprof          # also mount /debug/pprof
//	idonly-serve -store ./results -store-max-bytes 67108864 -hot-results 256
//	idonly-serve -store ./results -rate-rps 50 -rate-burst 100
//	idonly-serve -store ./results -faults compact_pre_rename=sleep:10s
//
//	curl -X POST localhost:8080/v1/sweep -d '{"preset":"small"}'
//	curl -X POST 'localhost:8080/v1/sweep?format=canonical' -d '{"preset":"small"}'
//	curl -X POST 'localhost:8080/v1/sweep?trace=1' -d '{"preset":"small"}'
//	curl -X POST localhost:8080/v1/compact          # rewrite the store log
//	curl localhost:8080/v1/result/<scenario-digest>
//	curl localhost:8080/v1/healthz
//	curl localhost:8080/v1/stats
//	curl localhost:8080/v1/runs                   # live + recent sweep runs
//	curl localhost:8080/v1/runs/run-000001       # one run's progress record
//	curl localhost:8080/v1/runs/run-000001/watch # NDJSON progress stream
//	curl localhost:8080/debug/events              # flight-recorder dump
//	curl localhost:8080/metrics                   # Prometheus text exposition
//
// Every sweep is registered as a run (the response carries its ID in
// the X-Idonly-Run header), and a watchdog flags any scenario that
// stays on one worker past -scenario-deadline: a flight-recorder event
// with the offending ScenarioDigest plus a goroutine dump to stderr.
//
// Concurrent sweeps that share scenarios simulate each shared one once
// (the store's per-digest flights dedupe them); -store-max-bytes keeps
// the result log under a watermark by evicting the least-recently-read
// records, and -rate-rps/-rate-burst token-bucket each client address.
// The -faults flag arms the failpoint plane used by the chaos CI job —
// never set it in production.
//
// SIGINT/SIGTERM trigger a graceful shutdown: in-flight sweeps finish
// (up to -drain), new connections are refused, and the store is closed
// only after the listener drains.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"idonly/internal/faults"
	"idonly/internal/obs"
	"idonly/internal/service"
	"idonly/internal/store"
)

// serveConfig carries every flag-settable knob into run.
type serveConfig struct {
	Addr     string
	StoreDir string

	Workers     int
	MaxInFlight int
	MaxGrid     int
	MaxN        int

	Drain    time.Duration
	PprofOn  bool
	Deadline time.Duration

	RunHistory int
	EventBuf   int

	StoreMaxBytes int64
	HotResults    int
	RateRPS       float64
	RateBurst     int
	FaultSpec     string
}

func main() {
	var cfg serveConfig
	flag.StringVar(&cfg.Addr, "addr", ":8080", "listen address")
	flag.StringVar(&cfg.StoreDir, "store", "results-store", "result store directory (created if missing)")
	flag.IntVar(&cfg.Workers, "workers", runtime.GOMAXPROCS(0), "worker-pool width per sweep")
	flag.IntVar(&cfg.MaxInFlight, "max-inflight", 2, "concurrent sweeps; excess requests get 429")
	flag.IntVar(&cfg.MaxGrid, "max-scenarios", 20000, "largest grid one request may expand to")
	flag.IntVar(&cfg.MaxN, "max-n", 256, "largest per-scenario system size a request may name")
	flag.DurationVar(&cfg.Drain, "drain", 30*time.Second, "graceful-shutdown drain timeout")
	flag.BoolVar(&cfg.PprofOn, "pprof", false, "mount net/http/pprof under /debug/pprof")
	flag.DurationVar(&cfg.Deadline, "scenario-deadline", 30*time.Second, "watchdog: flag any scenario busy on one worker this long (0 disables)")
	flag.IntVar(&cfg.RunHistory, "run-history", 64, "completed runs kept for GET /v1/runs")
	flag.IntVar(&cfg.EventBuf, "event-buffer", 1024, "flight-recorder ring size (rounded up to a power of two)")
	flag.Int64Var(&cfg.StoreMaxBytes, "store-max-bytes", 0, "store log watermark in bytes; exceeding it compacts away the least-recently-read results (0 = unbounded)")
	flag.IntVar(&cfg.HotResults, "hot-results", 0, "in-memory LRU of recently read results served without disk reads (0 = off)")
	flag.Float64Var(&cfg.RateRPS, "rate-rps", 0, "per-client sweep token refill rate; excess requests get 429 with an honest Retry-After (0 = unlimited)")
	flag.IntVar(&cfg.RateBurst, "rate-burst", 0, "per-client token-bucket depth (0 = ceil of -rate-rps)")
	flag.StringVar(&cfg.FaultSpec, "faults", "", "failpoint spec, e.g. compact_pre_rename=sleep:10s (chaos testing only)")
	logFlags := obs.RegisterLogFlags(flag.CommandLine)
	flag.Parse()
	if _, err := logFlags.Setup(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		slog.Error("serve failed", "err", err)
		os.Exit(1)
	}
}

func run(cfg serveConfig) error {
	fset, err := faults.Parse(cfg.FaultSpec)
	if err != nil {
		return err
	}
	var opts []store.Option
	if fset != nil {
		slog.Warn("failpoints armed", "points", fset.Points())
		opts = append(opts, store.WithFaults(fset))
	}
	if cfg.StoreMaxBytes > 0 {
		opts = append(opts, store.WithMaxBytes(cfg.StoreMaxBytes))
	}
	if cfg.HotResults > 0 {
		opts = append(opts, store.WithHotCache(cfg.HotResults))
	}
	st, err := store.Open(cfg.StoreDir, opts...)
	if err != nil {
		return err
	}
	defer st.Close()
	if tr := st.Stats().Truncated; tr > 0 {
		slog.Warn("recovered store", "store", cfg.StoreDir, "truncated_bytes", tr)
	}

	svc := service.New(service.Config{
		Store:        st,
		Workers:      cfg.Workers,
		MaxInFlight:  cfg.MaxInFlight,
		MaxScenarios: cfg.MaxGrid,
		MaxN:         cfg.MaxN,
		EnablePprof:  cfg.PprofOn,

		ScenarioDeadline: cfg.Deadline,
		RunHistory:       cfg.RunHistory,
		EventBuffer:      cfg.EventBuf,
		RateRPS:          cfg.RateRPS,
		RateBurst:        cfg.RateBurst,
	})
	srv := &http.Server{
		Addr:              cfg.Addr,
		Handler:           svc,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	slog.Info("listening",
		"addr", cfg.Addr, "store", cfg.StoreDir, "results", st.Len(),
		"pprof", cfg.PprofOn,
		"store_max_bytes", cfg.StoreMaxBytes, "hot_results", cfg.HotResults,
		"rate_rps", cfg.RateRPS)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	slog.Info("shutting down")
	shCtx, cancel := context.WithTimeout(context.Background(), cfg.Drain)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return st.Close()
}
