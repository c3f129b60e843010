package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"idonly/internal/engine"
)

// workloadDef names a workload and says why it exists; BENCHMARK.json
// carries the same text.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	make func(*runCtx) workload
}

var workloadDefs = []workloadDef{
	{"sweep-cold", "each op opens an empty store and POSTs the 288-scenario small grid: simulator rounds on both runner planes are ~99% of the time, store and render negligible",
		func(c *runCtx) workload { return &sweepWorkload{c: c, cold: true} }},
	{"sweep-warm", "the same grid served from a pre-filled store: zero simulator rounds, so only parse, digests, store reads, aggregate and render move it; a simulator change must leave it flat",
		func(c *runCtx) workload { return &sweepWorkload{c: c} }},
	{"serve-mixed", "2 closed-loop clients, 70% cached / 15% colliding duplicate / 15% never-seen grids over NDJSON: small durable writes beside reads, where coalescing, group commit and admission work",
		func(c *runCtx) workload { return &mixedWorkload{c: c} }},
	{"sim-scale", "seven large single runs through engine.RunAll, no HTTP and no store: delivery, sort and dedup inside one run dominate, typed and reference plane in comparable weight",
		func(c *runCtx) workload { return &simWorkload{c: c} }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.Name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// runCtx is what one workload process knows: the seed every generated
// input derives from, whether this is the 1/50-size smoke run, and a
// private scratch directory for store files.
type runCtx struct {
	seed  uint64
	quick bool
	tmp   string
	dirs  int
}

// newDir returns a fresh, not yet existing directory path under the
// scratch directory.
func (c *runCtx) newDir() string {
	c.dirs++
	return filepath.Join(c.tmp, fmt.Sprintf("store-%d", c.dirs))
}

// period is one slice of a timed stretch: an op on the workloads
// whose ops take a second, a quarter of a second of ops on the others.
// Throughput and CPU per op are reported as medians over periods, so
// a burst of machine noise shorter than half the run does not decide
// them.
type period struct {
	seconds   float64
	cpuMS     float64
	ops       int
	scenarios int64
}

// window is the shortest period on the workloads with short ops.
const window = 250 * time.Millisecond

// periodClock cuts a timed stretch into periods at op boundaries.
type periodClock struct {
	min   time.Duration // a period closes at the first op boundary this long after it opened
	start time.Time
	cpu   time.Duration
	ops   int
	scen  int64
	out   []period
}

func newPeriodClock(min time.Duration) (*periodClock, error) {
	cpu, err := cpuTime()
	return &periodClock{min: min, start: time.Now(), cpu: cpu}, err
}

// opDone counts one finished op (failed ops return no scenarios) and
// closes the period if it is long enough. Callers serialize it.
func (p *periodClock) opDone(scenarios int64) error {
	p.ops++
	p.scen += scenarios
	if time.Since(p.start) < p.min {
		return nil
	}
	return p.cut()
}

// periods returns the closed periods; a stretch too short to close
// one (the smoke test's) is returned as a single period.
func (p *periodClock) periods() ([]period, error) {
	if len(p.out) == 0 && p.ops > 0 {
		if err := p.cut(); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

func (p *periodClock) cut() error {
	now := time.Now()
	cpu, err := cpuTime()
	if err != nil {
		return err
	}
	p.out = append(p.out, period{
		seconds:   now.Sub(p.start).Seconds(),
		cpuMS:     float64((cpu - p.cpu).Nanoseconds()) / 1e6,
		ops:       p.ops,
		scenarios: p.scen,
	})
	p.start, p.cpu, p.ops, p.scen = now, cpu, 0, 0
	return nil
}

// opStats is what a stretch of timed operations produced.
type opStats struct {
	ms        []float64 // client-side wall time of each op that completed
	periods   []period
	messages  int64 // simulated messages delivered (sim-scale only)
	attempted int
	failed    int
}

// workload is one set of inputs the benchmark runs. prepare is called
// once and computes what the checks compare against (the oracle).
// setup builds everything the first timed op needs — stores, services,
// pre-fill, warm-ups — and is itself timed as setup_s; it may be
// called again after teardown. run performs closed-loop ops until the
// duration is spent (always at least one), recording spans when tr is
// not nil, and continues where the previous run stopped so a
// never-seen input stays never-seen. verify makes the checks that
// would distort timing if made inline and returns how many more ops
// they failed. layers is the traced pass's second half: it times
// direct calls into each layer on the same inputs and store state.
type workload interface {
	prepare() error
	setup() error
	teardown() error
	run(d time.Duration, tr *tracer) (opStats, error)
	verify() (failed int, err error)
	layers(d time.Duration, tr *tracer, m metrics) error
}

// gridSeeds are the scenario seeds of a generated grid: seed*1000+1
// onward, so two benchmark seeds never share a scenario.
func gridSeeds(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = seed*1000 + uint64(i+1)
	}
	return out
}

var fullChurn = engine.Churn{Joins: 1, Leaves: 1, FaultyJoins: 1, FaultyLeaves: 1}

// smallGrid is the engine's "small" preset shape under generated
// seeds: 6 protocols x {silent, split} x n in {7, 14} x static/churn
// x 6 seeds = 288 scenarios (24 when quick).
func smallGrid(c *runCtx) engine.Grid {
	g := engine.Grid{
		Name:        "bench-small",
		Protocols:   engine.Protocols(),
		Adversaries: []string{engine.AdvSilent, engine.AdvSplit},
		Sizes:       []int{7, 14},
		Seeds:       gridSeeds(c.seed, 6),
		Churns:      []engine.Churn{{}, fullChurn},
	}
	if c.quick {
		g.Sizes, g.Seeds = []int{7}, gridSeeds(c.seed, 1)
	}
	return g
}

// cleanup removes a store directory; a leftover only wastes scratch
// space, so the error is reported, not fatal.
func cleanup(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		logf("removing %s: %v", dir, err)
	}
}

// untilDeadline calls op with 0, 1, 2, ... until d has passed, at
// least once, stopping at the first error.
func untilDeadline(d time.Duration, op func(i int) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		if err := op(i); err != nil {
			return err
		}
		if time.Since(start) >= d {
			return nil
		}
	}
}
