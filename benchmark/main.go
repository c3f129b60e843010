// Command benchmark is the idonly benchmark: four workloads from an
// HTTP sweep down to the simulator core, five end-to-end metrics
// measured with tracing off, and an outside-in per-layer trace.
// README.md says why each workload and metric exists; BENCHMARK.json
// at the repository root declares them.
//
// With -workload it runs that one workload in this process and prints
// one JSON result line (the driver's contract). Without, it re-executes
// itself once per workload — a fresh process each, so heap state, the
// store's page cache and peak RSS never leak between workloads —
// prints every metric by name and writes out/result.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// setupReps is how many times a workload process sets up; setup_s is
// the median, so a slow fsync or a burst of machine noise does not
// decide it.
const setupReps = 3

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	quick    bool
	repeats  int
	outDir   string
}

// metricValue is one metric in a result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a workload process's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var compare, selfcheck bool
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print its result line")
	o.seed = 1
	flag.Func("seed", "any 64-bit integer; drives every generated input: grid seeds, the serve-mixed schedule, sim-scale scenario seeds (default 1)", func(s string) error {
		v, err := parseSeed(s)
		o.seed = v
		return err
	})
	flag.Float64Var(&o.seconds, "seconds", 20, "how long a run measures")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and reports the per-layer metrics instead")
	flag.BoolVar(&o.quick, "quick", false, "1/50-size inputs, for the smoke test")
	flag.IntVar(&o.repeats, "repeats", 1, "runs per workload when no -workload is given")
	flag.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory for result.json, traces and scratch stores")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare A.json B.json")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run the whole benchmark twice on this code and fail if the two disagree")
	flag.Parse()

	var err error
	switch {
	case compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare takes two result files")
			break
		}
		_, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case selfcheck:
		err = runSelfcheck(o)
	case o.workload != "":
		var line resultLine
		if line, err = runWorkload(o); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(line)
		}
	default:
		_, err = runAll(o, "result.json")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runWorkload runs one workload in this process: the end-to-end pass
// (trace 0) or the traced pass (trace 1).
func runWorkload(o options) (resultLine, error) {
	def, ok := findWorkload(o.workload)
	if !ok {
		return resultLine{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return resultLine{}, errors.New("need -seconds > 0")
	}
	tmp := filepath.Join(o.outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return resultLine{}, err
	}
	defer cleanup(tmp)
	c := &runCtx{seed: foldSeed(o.seed), quick: o.quick, tmp: tmp}
	w := def.make(c)
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 1 {
		return tracedPass(w, o, d)
	}
	return endToEndPass(w, d)
}

// parseSeed accepts any integer that fits 64 bits, signed or unsigned.
func parseSeed(s string) (uint64, error) {
	if v, err := strconv.ParseUint(s, 10, 64); err == nil {
		return v, nil
	}
	v, err := strconv.ParseInt(s, 10, 64)
	return uint64(v), err
}

// maxSeed bounds the seed the generators see: mixedGrid packs it above
// a 40-bit request index, and seed*1000 must not wrap.
const maxSeed = 1<<24 - 1

// foldSeed maps any -seed onto 1..maxSeed. A seed already in that
// range is kept, so -seed 1 gives grid seeds 1001..1006; 0 and
// anything larger are mixed (splitmix64) and reduced.
func foldSeed(seed uint64) uint64 {
	if 0 < seed && seed <= maxSeed {
		return seed
	}
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return 1 + (z^z>>31)%maxSeed
}

// endToEndPass sets up setupReps times, then measures ops for d with
// tracing off.
func endToEndPass(w workload, d time.Duration) (line resultLine, err error) {
	if err := w.prepare(); err != nil {
		return line, fmt.Errorf("prepare: %w", err)
	}
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 {
			if err := w.teardown(); err != nil {
				return line, err
			}
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return line, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { err = errors.Join(err, w.teardown()) }()

	resetPeakRSS()
	st, err := w.run(d, nil)
	if err != nil {
		return line, err
	}
	peak, err := peakRSSMB()
	if err != nil {
		return line, err
	}
	late, err := w.verify()
	if err != nil {
		return line, err
	}
	if len(st.ms) == 0 {
		return line, fmt.Errorf("all %d ops failed", st.attempted)
	}
	var thr, cpu []float64
	for _, p := range st.periods {
		thr = append(thr, float64(p.scenarios)/p.seconds)
		cpu = append(cpu, p.cpuMS/float64(p.ops))
	}
	m := newMetrics(endToEnd)
	m.set("setup_s", median(setups))
	m.set("op_p50_ms", median(st.ms))
	m.set("scenarios_per_s", median(thr))
	m.set("cpu_ms_per_op", median(cpu))
	m.set("peak_rss_mb", peak)
	return makeLine(st.attempted, st.failed+late, m, endToEnd), nil
}

// tracedPass sets up once and spends d in four parts: an untraced
// stretch of ops (the baseline for the tracing overhead and the
// process counters), a traced stretch, and the direct calls into each
// layer. Spans are written out when it ends.
func tracedPass(w workload, o options, d time.Duration) (line resultLine, err error) {
	m := newMetrics(perLayer)
	m.set("machine.calib_ms_before", calibrate(o.quick))
	if err := w.prepare(); err != nil {
		return line, fmt.Errorf("prepare: %w", err)
	}
	if err := w.setup(); err != nil {
		return line, fmt.Errorf("setup: %w", err)
	}
	defer func() { err = errors.Join(err, w.teardown()) }()

	before, err := sampleProc()
	if err != nil {
		return line, err
	}
	plain, err := w.run(d/4, nil)
	if err != nil {
		return line, err
	}
	after, err := sampleProc()
	if err != nil {
		return line, err
	}
	tr := newTracer()
	traced, err := w.run(d/4, tr)
	if err != nil {
		return line, err
	}
	late, err := w.verify()
	if err != nil {
		return line, err
	}
	if len(plain.ms) == 0 || len(traced.ms) == 0 {
		return line, fmt.Errorf("all ops failed (%d untraced, %d traced)", plain.attempted, traced.attempted)
	}
	if err := w.layers(d/2, tr, m); err != nil {
		return line, fmt.Errorf("layers: %w", err)
	}

	ops := float64(plain.attempted)
	m.set("process.mallocs_per_op", float64(after.mem.Mallocs-before.mem.Mallocs)/ops)
	m.set("process.alloc_mb_per_op", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/(1<<20)/ops)
	m.set("process.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC))
	m.set("process.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6)
	m.set("bench.trace_overhead_ratio", median(traced.ms)/median(plain.ms))
	if plain.messages > 0 {
		var busy float64
		for _, p := range plain.periods {
			busy += p.seconds
		}
		m.set("sim.msgs_per_s", float64(plain.messages)/busy)
	}
	attempted := plain.attempted + traced.attempted
	failed := plain.failed + traced.failed + late
	m.set("bench.failed_ratio", float64(failed)/float64(attempted))
	m.set("machine.calib_ms_after", calibrate(o.quick))
	peak, err := peakRSSMB()
	if err != nil {
		return line, err
	}
	m.set("process.peak_rss_mb", peak)

	if err := writeTrace(filepath.Join(o.outDir, "trace-"+o.workload+".json"), tr.spans); err != nil {
		return line, err
	}
	return makeLine(attempted, failed, m, perLayer), nil
}

func makeLine(attempted, failed int, m metrics, defs []metricDef) resultLine {
	line := resultLine{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		line.Metrics[d.Name] = metricValue{m[d.Name], d.Unit}
	}
	return line
}

// runRecord is one workload process's result, as result.json keeps it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	resultLine
}

// resultFile is out/result.json.
type resultFile struct {
	Env  environment `json:"env"`
	Runs []runRecord `json:"runs"`
}

// runAll runs every workload in a fresh process each — repeats
// end-to-end passes, then one traced pass when -trace 1 — prints the
// metrics and writes the result file.
func runAll(o options, name string) (resultFile, error) {
	rf := resultFile{Env: readEnvironment()}
	self, err := os.Executable()
	if err != nil {
		return rf, err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return rf, err
	}
	for _, def := range workloadDefs {
		passes := make([]int, o.repeats, o.repeats+1)
		if o.trace == 1 {
			passes = append(passes, 1)
		}
		for _, trace := range passes {
			args := []string{"-workload", def.Name, "-seed", fmt.Sprint(o.seed),
				"-seconds", fmt.Sprint(o.seconds), "-trace", fmt.Sprint(trace), "-out", o.outDir}
			if o.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output() // waits for the child to exit
			if err != nil {
				return rf, fmt.Errorf("workload %s: %w", def.Name, err)
			}
			rec := runRecord{Workload: def.Name, Seed: o.seed, Trace: trace}
			if err := json.Unmarshal(out, &rec.resultLine); err != nil {
				return rf, fmt.Errorf("workload %s: decoding result line: %w", def.Name, err)
			}
			rf.Runs = append(rf.Runs, rec)
			printRun(rec)
		}
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return rf, err
	}
	return rf, os.WriteFile(filepath.Join(o.outDir, name), append(b, '\n'), 0o644)
}

func printRun(rec runRecord) {
	fmt.Printf("%s seed=%d trace=%d attempted=%d failed=%d correct=%v\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed, rec.Correct)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if v := rec.Metrics[name]; v.Value != 0 {
			fmt.Printf("  %-30s %16.4f %s\n", name, v.Value, v.Unit)
		}
	}
}
