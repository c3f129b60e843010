// Package engine is the parallel scenario engine: it fans many
// independent simulation runs — (protocol × adversary × size × seed)
// scenarios — across a worker pool and aggregates their results into a
// deterministic report.
//
// Determinism contract: every scenario derives all of its randomness
// from its own seeded ids.Rand (constructed from Scenario.Seed inside
// the scenario itself, never shared between scenarios), results are
// stored by scenario index, and aggregation merges groups in sorted key
// order. Consequently the canonical report bytes (Report.Canonical) are
// identical for any worker count. Wall-clock timings are the only
// non-deterministic outputs and are excluded from the canonical form.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Map runs fn(i) for every i in [0, n) across at most workers
// goroutines and returns the results in index order. workers <= 0 means
// GOMAXPROCS. Work is handed out through an atomic counter, so uneven
// per-item costs load-balance instead of stalling a fixed chunk; the
// result order (and therefore anything computed from it) is independent
// of the worker count. fn must not touch state shared with other
// indices.
func Map[T any](workers, n int, fn func(i int) T) []T {
	return MapWorker(workers, n, func(_, i int) T { return fn(i) })
}

// MapWorker is Map with the worker-pool slot made visible to fn — the
// hook trace records use it to label each span with the goroutine lane
// that ran the scenario. Results are still index-ordered and
// worker-count-independent; the slot number is reporting, not
// semantics.
func MapWorker[T any](workers, n int, fn func(worker, i int) T) []T {
	out := make([]T, n)
	if n == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(0, i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(w, i)
				// Yield between items. A pool as wide as GOMAXPROCS
				// never blocks, so a GC cycle started meanwhile gets
				// no P for its mark worker until the 10 ms preemption
				// tick: the cycle stretches, everything allocated
				// during it is marked live, and the next heap goal —
				// and with it the resident set — jumps several-fold.
				runtime.Gosched()
			}
		}(w)
	}
	wg.Wait()
	return out
}

// Options configures a sweep.
type Options struct {
	Workers int    // scenario-level worker pool size; <= 0 means GOMAXPROCS
	Grid    string // optional grid name recorded in the report

	// Hooks is the sweep's observability: engine metrics and/or a
	// per-scenario trace sink. The zero value is fully disabled and
	// adds no measurable overhead (see Hooks).
	Hooks Hooks
}

// RunAll executes every scenario across the worker pool and returns the
// aggregated report. Results appear in input order and groups in sorted
// key order regardless of Workers.
func RunAll(specs []Scenario, opts Options) *Report {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now() //lint:wallclock report wall-time only; results never read it
	results := MapWorker(workers, len(specs), func(w, i int) Result {
		return specs[i].RunHooked(w, i, opts.Hooks)
	})
	return &Report{
		Grid:      opts.Grid,
		Scenarios: len(specs),
		Workers:   workers,
		ElapsedNS: time.Since(start).Nanoseconds(), //lint:wallclock report wall-time only; results never read it
		Groups:    opts.Hooks.Aggregate(results),
		Results:   results,
	}
}
