package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"idonly/internal/faults"
	"idonly/internal/service"
	"idonly/internal/store"
)

// runServe exposes the scenario engine and the result store over HTTP:
// sweeps are served from the store where possible and computed (then
// persisted) where not, so every grid is simulated at most once across
// clients, processes and restarts. The endpoints are listed in
// DESIGN.md ("Sweep service").
//
//	idonly serve -store ./results                 # listen on :8080
//	idonly serve -addr :9000 -store ./results -workers 8 -max-inflight 4
//	idonly serve -store ./results -pprof          # also mount /debug/pprof
//	idonly serve -store ./results -rate-rps 50 -rate-burst 100
//
// The store keeps every result it is handed; to reclaim its disk, stop
// the server and delete the -store directory, and every result is
// recomputed on demand. The -faults flag arms the failpoint plane the
// chaos CI job drives; never set it in production. SIGINT/SIGTERM drain
// in-flight sweeps (up to -drain) and close the store after the
// listener.
func runServe(args []string, stdout, stderr io.Writer) int {
	var cfg service.Config
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	dir := fs.String("store", "results-store", "result store directory (created if missing)")
	fs.IntVar(&cfg.Workers, "workers", runtime.GOMAXPROCS(0), "worker-pool width per sweep")
	fs.IntVar(&cfg.MaxInFlight, "max-inflight", 2, "concurrent sweeps; excess requests get 429")
	fs.IntVar(&cfg.MaxScenarios, "max-scenarios", 20000, "largest grid one request may expand to")
	fs.IntVar(&cfg.MaxN, "max-n", 256, "largest per-scenario system size a request may name, joiners included")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain timeout")
	fs.BoolVar(&cfg.EnablePprof, "pprof", false, "mount net/http/pprof under /debug/pprof")
	fs.DurationVar(&cfg.ScenarioDeadline, "scenario-deadline", 30*time.Second, "watchdog: flag any scenario busy on one worker this long (0 disables)")
	fs.IntVar(&cfg.RunHistory, "run-history", 64, "completed runs kept for GET /v1/runs")
	fs.IntVar(&cfg.EventBuffer, "event-buffer", 1024, "flight-recorder ring size (rounded up to a power of two)")
	fs.Float64Var(&cfg.RateRPS, "rate-rps", 0, "per-client sweep token refill rate; excess requests get 429 with an honest Retry-After (0 = unlimited)")
	fs.IntVar(&cfg.RateBurst, "rate-burst", 0, "per-client token-bucket depth (0 = ceil of -rate-rps)")
	faultSpec := fs.String("faults", "", "failpoint spec, e.g. store_sync_gate=sleep:10s (chaos testing only)")
	if code, ok := parse(fs, args, stderr); !ok {
		return code
	}
	// NaN or +Inf would poison every token bucket and refuse each sweep.
	if math.IsNaN(cfg.RateRPS) || math.IsInf(cfg.RateRPS, 0) || cfg.RateRPS < 0 {
		fmt.Fprintf(stderr, "idonly serve: -rate-rps %v is not a finite rate >= 0\n", cfg.RateRPS)
		return 2
	}

	fset, err := faults.Parse(*faultSpec)
	if err != nil {
		slog.Error("parsing -faults", "err", err)
		return 2
	}
	var opts []store.Option
	if fset != nil {
		slog.Warn("failpoints armed", "points", fset.Points())
		opts = append(opts, store.WithFaults(fset))
	}
	if err := serve(cfg, *addr, *dir, *drain, opts); err != nil {
		slog.Error("serve failed", "err", err)
		return 1
	}
	return 0
}

// serve opens the store at dir with opts and runs the service on addr
// until SIGINT/SIGTERM, then drains for at most drain and closes the
// store after the listener.
func serve(cfg service.Config, addr, dir string, drain time.Duration, opts []store.Option) error {
	st, err := store.Open(dir, opts...)
	if err != nil {
		return err
	}
	defer st.Close()
	if tr := st.Stats().Truncated; tr > 0 {
		slog.Warn("recovered store", "store", dir, "truncated_bytes", tr)
	}
	cfg.Store = st
	srv := &http.Server{Addr: addr, Handler: service.New(cfg), ReadHeaderTimeout: 10 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	slog.Info("listening", "addr", addr, "store", dir, "results", st.Len(),
		"pprof", cfg.EnablePprof, "rate_rps", cfg.RateRPS)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	slog.Info("shutting down")
	shCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return st.Close()
}
