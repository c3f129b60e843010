package store

import (
	"testing"

	"idonly/internal/engine"
)

// smallGridStore opens a store holding the small preset grid's results.
func smallGridStore(tb testing.TB) (*Store, engine.Grid) {
	tb.Helper()
	g, err := engine.PresetGrid("small")
	if err != nil {
		tb.Fatal(err)
	}
	st, err := Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { st.Close() })
	if _, _, err := CachedRunAll(st, g.Scenarios(), engine.Options{Workers: 2, Grid: g.Name}); err != nil {
		tb.Fatal(err)
	}
	return st, g
}

// TestWarmSweepAllocs pins what a warm sweep of the small grid (288
// scenarios) allocates. Measured: 925 — per scenario its name (once,
// in Grid.Scenarios), its digest, its decoded output, and little else
// (the decoded name is the spec's own string); the rest is per sweep
// (the specs, the result slice, one run's read buffer, the aggregate,
// the canonical buffer). Names rendered with fmt again or copied on
// decode, or a Result copied per bucket, add hundreds.
func TestWarmSweepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin only holds uninstrumented")
	}
	st, g := smallGridStore(t)
	// What a warm sweep does below the HTTP layer: expand the grid,
	// serve every scenario from the store, render the report.
	warmSweep := func() {
		rep, stats, err := CachedRunAll(st, g.Scenarios(), engine.Options{Workers: 2, Grid: g.Name})
		if err != nil || stats.Misses != 0 {
			t.Fatalf("warm sweep: %+v, %v", stats, err)
		}
		rep.CanonicalBytes()
	}
	const budget = 1025
	if got := testing.AllocsPerRun(5, warmSweep); got > budget {
		t.Errorf("a warm small-grid sweep allocates %.0f times, want <= %d", got, budget)
	} else {
		t.Logf("a warm small-grid sweep allocates %.0f times", got)
	}
}

// BenchmarkCachedRunAllWarm serves the small grid from a pre-filled
// store: digests, the store read, aggregation, no render.
func BenchmarkCachedRunAllWarm(b *testing.B) {
	st, g := smallGridStore(b)
	specs := g.Scenarios()
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := CachedRunAll(st, specs, engine.Options{Workers: 2, Grid: g.Name}); err != nil {
			b.Fatal(err)
		}
	}
}
