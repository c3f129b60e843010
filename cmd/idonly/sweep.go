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

// runExp regenerates the selected experiment tables, fanning each
// experiment's internal sweeps across the worker pool.
//
//	idonly exp                 # every table
//	idonly exp -run E4,E5      # a subset
//	idonly exp -seed 7         # another workload seed
//	idonly exp -run E4 -cpuprofile cpu.pprof -memprofile mem.pprof
func runExp(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("exp", flag.ContinueOnError)
	run := fs.String("run", "", "comma-separated experiment ids (default: all)")
	seed := fs.Uint64("seed", 42, "workload seed (runs are deterministic per seed)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "worker-pool width for the sweeps")
	startProfiles := profileFlags(fs)
	if code, ok := parse(fs, args, stderr); !ok {
		return code
	}
	cl := newCleanups()
	defer cl.run()
	if err := startProfiles(cl); err != nil {
		slog.Error("starting profiles", "err", err)
		return 1
	}

	experiments.Parallelism = *workers
	want := map[string]bool{}
	if *run != "" {
		for _, id := range strings.Split(*run, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	matched := false
	for _, exp := range experiments.All() {
		if len(want) > 0 && !want[exp.ID] {
			continue
		}
		matched = true
		start := time.Now()
		for _, t := range exp.Run(*seed) {
			t.Fprint(stdout)
		}
		fmt.Fprintf(stdout, "[%s completed in %v]\n\n", exp.ID, time.Since(start).Round(time.Millisecond))
	}
	if !matched {
		slog.Error("no experiment matched", "run", *run)
		for _, exp := range experiments.All() {
			fmt.Fprintf(stderr, "  %-4s %s\n", exp.ID, exp.Name)
		}
		return 2
	}
	return 0
}

// runSweep expands a preset grid and sweeps it across the worker pool.
//
//	idonly sweep -grid small                  # text report
//	idonly sweep -grid small -workers 4       # a worker pool 4 wide
//	idonly sweep -grid small -canonical       # the byte-stable report (-json: the full one)
//	idonly sweep -grid small -churn j2,l1,fj1,fl1        # replace the churn axis ('none' = static only)
//	idonly sweep -grid small -store ./results            # hits from the store, misses run then persisted
//	idonly sweep -grid small -trace-out trace.ndjson     # one span per scenario, for `idonly trace -summarize`
//
// Profiles and the trace sink share one run-once cleanup path that also
// fires on SIGINT/SIGTERM, so an interrupted grid still leaves valid
// files behind.
func runSweep(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	grid := fs.String("grid", "small", "preset grid: small, medium, large or scale")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "worker-pool width")
	jsonOut := fs.Bool("json", false, "emit the full report as JSON")
	canonical := fs.Bool("canonical", false, "emit the canonical (timing-free, byte-stable) report JSON")
	churn := fs.String("churn", "", "replace the churn axis with one spec (e.g. j2,l1,fj1,fl1; 'none' = static only)")
	storeDir := fs.String("store", "", "serve cached results from (and persist fresh results to) this store directory")
	traceOut := fs.String("trace-out", "", "write one NDJSON span record per scenario to this file ('-' = stderr)")
	startProfiles := profileFlags(fs)
	if code, ok := parse(fs, args, stderr); !ok {
		return code
	}
	cl := newCleanups()
	defer cl.run()
	if err := startProfiles(cl); err != nil {
		slog.Error("starting profiles", "err", err)
		return 1
	}

	var hooks engine.Hooks
	if *traceOut != "" {
		w := stderr
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

	format := "text"
	if *canonical {
		format = "canonical"
	} else if *jsonOut {
		format = "json"
	}
	g, err := engine.PresetGrid(*grid)
	if err == nil && *churn != "" {
		var spec engine.Churn
		spec, err = engine.ParseChurn(*churn)
		g.Churns = []engine.Churn{spec}
	}
	if err == nil {
		err = sweep(g, *storeDir, *workers, format, hooks, stdout)
	}
	if err != nil {
		slog.Error("grid sweep failed", "err", err)
		return 2
	}
	return 0
}

// sweep runs g's scenarios, through the store at storeDir when set
// (logging the hit/miss split), and writes the report to stdout in
// format: text, json or canonical.
func sweep(g engine.Grid, storeDir string, workers int, format string, hooks engine.Hooks, stdout io.Writer) error {
	specs := g.Scenarios()
	opts := engine.Options{Workers: workers, Grid: g.Name, Hooks: hooks}
	var rep *engine.Report
	if storeDir != "" {
		st, err := store.Open(storeDir)
		if err != nil {
			return err
		}
		defer st.Close()
		var stats store.RunStats
		rep, stats, err = store.CachedRunAll(st, specs, opts)
		if err != nil {
			return err
		}
		slog.Info("store sweep", "store", storeDir, "hits", stats.Hits, "misses", stats.Misses,
			"scenarios", len(specs), "records", st.Len())
	} else {
		rep = engine.RunAll(specs, opts)
	}

	switch format {
	case "canonical":
		b, err := rep.CanonicalBytes()
		if err != nil {
			return err
		}
		if _, err := stdout.Write(b); err != nil {
			return err
		}
	case "json":
		if err := rep.WriteJSON(stdout); err != nil {
			return err
		}
	default:
		rep.WriteText(stdout)
	}

	if errs := rep.Errors(); len(errs) > 0 {
		return fmt.Errorf("%d scenarios failed; first: %s: %s", len(errs), errs[0].Scenario.Name, errs[0].Err)
	}
	return nil
}

// profileFlags adds the -cpuprofile and -memprofile flags exp and
// sweep share. The returned start begins the CPU profile and registers
// both profiles' teardown on cl.
func profileFlags(fs *flag.FlagSet) (start func(cl *cleanups) error) {
	cpu := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	mem := fs.String("memprofile", "", "write an allocation profile (all allocs since start) to this file at exit")
	return func(cl *cleanups) error {
		if *cpu != "" {
			f, err := os.Create(*cpu)
			if err != nil {
				return err
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return err
			}
			cl.add(func() {
				pprof.StopCPUProfile()
				f.Close()
			})
		}
		if *mem != "" {
			cl.add(func() {
				f, err := os.Create(*mem)
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
		return nil
	}
}

// cleanups is the shared teardown path for everything that must flush
// before the process ends: profiles and the trace sink. run executes
// the registered functions exactly once, last-added first, on a normal
// return or on SIGINT/SIGTERM (after which the process exits 130).
type cleanups struct {
	mu   sync.Mutex
	done bool
	fns  []func()
	sig  chan os.Signal
}

func newCleanups() *cleanups {
	c := &cleanups{sig: make(chan os.Signal, 1)}
	signal.Notify(c.sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		if s, ok := <-c.sig; ok {
			slog.Warn("interrupted; flushing profiles and trace", "signal", s.String())
			c.run()
			os.Exit(130)
		}
	}()
	return c
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
	signal.Stop(c.sig)
	close(c.sig)
	for i := len(c.fns) - 1; i >= 0; i-- {
		c.fns[i]()
	}
}
