// Command idonly-bench drives the reproduction's workloads: the
// experiment tables E1–E10 (see DESIGN.md for the per-experiment index
// and EXPERIMENTS.md for paper-claim vs measured) and the parallel
// scenario engine's benchmark grids.
//
// Usage:
//
//	idonly-bench                          # run every experiment table
//	idonly-bench -run E4,E5               # run a subset
//	idonly-bench -seed 7                  # change the workload seed
//	idonly-bench -workers 8               # worker-pool width for the sweeps
//	idonly-bench -grid small              # run a scenario grid instead
//	idonly-bench -grid small -workers 4   # explicit -workers adds a sequential
//	                                      # baseline run, a canonical-report
//	                                      # equality check and the measured
//	                                      # speedup
//	idonly-bench -grid small -json        # emit the grid report as JSON
//	                                      # (diagnostics go to stderr)
//	idonly-bench -grid small -sim-workers 4  # also shard rounds inside each run
//	idonly-bench -grid small -churn j2,l1,fj1,fl1
//	                                      # replace the grid's churn axis with
//	                                      # one spec: 2 joins, 1 graceful leave,
//	                                      # 1 late faulty join, 1 faulty removal
//	idonly-bench -grid small -churn none  # static column only
//	idonly-bench -grid small -store ./results
//	                                      # sweep through the content-addressed
//	                                      # result store: hits are served from
//	                                      # disk, misses are run then persisted.
//	                                      # A warm re-run performs zero
//	                                      # simulator rounds, and idonly-serve
//	                                      # pointed at the same directory serves
//	                                      # the identical report over HTTP
//	idonly-bench -grid small -trace-out trace.ndjson
//	                                      # stream one span record per scenario
//	                                      # (digest, phase timings, worker) to a
//	                                      # file; summarize with
//	                                      # `idonly-trace -summarize trace.ndjson`
//	idonly-bench -run E4 -cpuprofile cpu.pprof -memprofile mem.pprof
//	                                      # profile either mode (experiments
//	                                      # or grids); inspect with
//	                                      # `go tool pprof`
//
// Performance is measured by the benchmark module (benchmark/README.md),
// not by this command.
//
// Profiles and the trace sink share one run-once cleanup path that also
// fires on SIGINT/SIGTERM, so an interrupted grid still leaves valid
// pprof and trace files behind.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"idonly/internal/engine"
	"idonly/internal/experiments"
	"idonly/internal/obs"
	"idonly/internal/store"
)

// cleanups is the shared teardown path for everything that must flush
// before the process ends: CPU/alloc profiles and the trace sink. run
// executes the registered functions exactly once, last-added first, so
// both a normal return and a mid-grid SIGINT leave valid files.
type cleanups struct {
	mu   sync.Mutex
	done bool
	fns  []func()
}

func (c *cleanups) add(fn func()) {
	c.mu.Lock()
	c.fns = append(c.fns, fn)
	c.mu.Unlock()
}

func (c *cleanups) run() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return
	}
	c.done = true
	for i := len(c.fns) - 1; i >= 0; i-- {
		c.fns[i]()
	}
}

// main defers the cleanup path inside realMain so profiles and traces
// flush on every exit path, including a failed grid sweep.
func main() {
	os.Exit(realMain())
}

func realMain() int {
	run := flag.String("run", "", "comma-separated experiment ids (default: all)")
	seed := flag.Uint64("seed", 42, "workload seed (runs are deterministic per seed)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker-pool width for sweeps and grids")
	grid := flag.String("grid", "", "run a scenario grid instead of the experiments: small, medium, large or scale")
	jsonOut := flag.Bool("json", false, "with -grid: emit the full report as JSON")
	simWorkers := flag.Int("sim-workers", 1, "with -grid: shard each round's Step calls inside every run across this many goroutines")
	churn := flag.String("churn", "", "with -grid: replace the churn axis with one spec (e.g. j2,l1,fj1,fl1; 'none' = static only)")
	storeDir := flag.String("store", "", "with -grid: serve cached results from (and persist fresh results to) this content-addressed store directory")
	canonical := flag.Bool("canonical", false, "with -grid: emit the canonical (timing-free, byte-stable) report JSON")
	traceOut := flag.String("trace-out", "", "with -grid: write one NDJSON span record per scenario to this file ('-' = stderr)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile (all allocs since start) to this file at exit")
	logFlags := obs.RegisterLogFlags(flag.CommandLine)
	flag.Parse()
	if _, err := logFlags.Setup(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	cl := &cleanups{}
	defer cl.run()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		slog.Warn("interrupted; flushing profiles and trace", "signal", s.String())
		cl.run()
		os.Exit(130)
	}()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			slog.Error("creating cpu profile", "err", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			slog.Error("starting cpu profile", "err", err)
			return 1
		}
		cl.add(func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if *memProfile != "" {
		cl.add(func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				slog.Error("creating alloc profile", "err", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so alloc_space/objects are complete
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				slog.Error("writing alloc profile", "err", err)
			}
		})
	}

	var hooks engine.Hooks
	if *traceOut != "" {
		w := io.Writer(os.Stderr)
		if *traceOut != "-" {
			f, err := os.Create(*traceOut)
			if err != nil {
				slog.Error("creating trace file", "err", err)
				return 1
			}
			cl.add(func() { f.Close() })
			w = f
		}
		tw := obs.NewTraceWriter(w)
		cl.add(func() {
			if err := tw.Flush(); err != nil {
				slog.Error("flushing trace", "err", err)
			}
		})
		hooks.Span = func(sp engine.Span) { tw.Write(sp) }
	}

	// Only an explicitly chosen -workers triggers the sequential
	// baseline + speedup comparison: it doubles the work, so the
	// default run sweeps the grid exactly once.
	compare := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "workers" {
			compare = true
		}
	})

	if *grid != "" {
		if err := runGrid(*grid, *churn, *storeDir, *workers, *simWorkers, *jsonOut, *canonical, compare, hooks); err != nil {
			slog.Error("grid sweep failed", "err", err)
			return 2
		}
		return 0
	}
	return runExperiments(*run, *seed, *workers)
}

// runGrid expands the named grid and sweeps it across the worker pool.
// With -store it sweeps through the content-addressed result store
// (hits served from disk, misses run then persisted) and reports the
// split on stderr. With compare set (an explicit -workers flag) and
// more than one worker, it first runs a sequential baseline, checks
// that the canonical reports are byte-identical (the engine's
// determinism contract) and prints the measured speedup; with -json
// the speedup line goes to stderr so stdout stays machine-readable.
// hooks (the -trace-out sink) flows into the sweep — cached and
// computed scenarios alike emit span records.
func runGrid(name, churn, storeDir string, workers, simWorkers int, jsonOut, canonical, compare bool, hooks engine.Hooks) error {
	g, err := engine.PresetGrid(name)
	if err != nil {
		return err
	}
	g.SimWorkers = simWorkers
	if churn != "" {
		spec, err := engine.ParseChurn(churn)
		if err != nil {
			return err
		}
		g.Churns = []engine.Churn{spec}
	}
	specs := g.Scenarios()

	var baseline *engine.Report
	if compare && workers > 1 {
		baseline = engine.RunAll(specs, engine.Options{Workers: 1, Grid: name})
	}

	var rep *engine.Report
	if storeDir != "" {
		st, err := store.Open(storeDir)
		if err != nil {
			return err
		}
		defer st.Close()
		var stats store.RunStats
		rep, stats, err = store.CachedRunAll(st, specs, engine.Options{Workers: workers, Grid: name, Hooks: hooks})
		if err != nil {
			return err
		}
		slog.Info("store sweep",
			"store", storeDir,
			"hits", stats.Hits,
			"misses", stats.Misses,
			"scenarios", len(specs),
			"records", st.Len())
	} else {
		rep = engine.RunAll(specs, engine.Options{Workers: workers, Grid: name, Hooks: hooks})
	}

	if canonical {
		b, err := rep.CanonicalBytes()
		if err != nil {
			return err
		}
		if _, err := os.Stdout.Write(b); err != nil {
			return err
		}
	} else if jsonOut {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else {
		rep.WriteText(os.Stdout)
	}
	if baseline != nil {
		baseBytes, err := baseline.CanonicalBytes()
		if err != nil {
			return err
		}
		repBytes, err := rep.CanonicalBytes()
		if err != nil {
			return err
		}
		if string(baseBytes) != string(repBytes) {
			return fmt.Errorf("determinism violated: canonical reports differ between workers=1 and workers=%d", workers)
		}
		out := os.Stdout
		if jsonOut || canonical {
			out = os.Stderr
		}
		seq := time.Duration(baseline.ElapsedNS)
		par := time.Duration(rep.ElapsedNS)
		fmt.Fprintf(out, "sequential baseline %v, %d workers %v: %.2fx speedup (reports byte-identical)\n",
			seq.Round(time.Millisecond), workers, par.Round(time.Millisecond),
			float64(seq)/float64(par))
	}
	if errs := rep.Errors(); len(errs) > 0 {
		return fmt.Errorf("%d scenarios failed; first: %s: %s", len(errs), errs[0].Scenario.Name, errs[0].Err)
	}
	return nil
}

// runExperiments regenerates the selected experiment tables, fanning
// each experiment's internal sweeps across the worker pool.
func runExperiments(run string, seed uint64, workers int) int {
	experiments.Parallelism = workers
	want := map[string]bool{}
	if run != "" {
		for _, id := range strings.Split(run, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	any := false
	for _, exp := range experiments.All() {
		if len(want) > 0 && !want[exp.ID] {
			continue
		}
		any = true
		start := time.Now()
		tables := exp.Run(seed)
		for _, t := range tables {
			t.Fprint(os.Stdout)
		}
		fmt.Printf("[%s completed in %v]\n\n", exp.ID, time.Since(start).Round(time.Millisecond))
	}
	if !any {
		slog.Error("no experiment matched", "run", run)
		for _, exp := range experiments.All() {
			fmt.Fprintf(os.Stderr, "  %-4s %s\n", exp.ID, exp.Name)
		}
		return 2
	}
	return 0
}
