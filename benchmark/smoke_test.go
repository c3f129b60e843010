package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

// mustMove names, per workload, per-layer metrics the traced pass must
// measure there (not leave at 0): one or two per layer the workload
// exercises, so a renamed span or a skipped phase fails here.
var mustMove = map[string][]string{
	"sweep-cold": {"service.roundtrip_ns", "service.cache_misses", "store.putbatch288_ns", "store.puts",
		"engine.runall_ns", "engine.run_ns.dynamic", "engine.pool_busy_ratio", "engine.msgs", "obs.hooks_on_ratio"},
	"sweep-warm": {"service.roundtrip_ns", "service.self_ns", "service.cache_hits", "store.open_ns", "store.get_ns",
		"store.cached_runall_ns", "store.hit_ratio", "engine.expand_ns", "engine.digest_ns", "engine.aggregate_ns", "engine.render_ns"},
	"serve-mixed": {"service.roundtrip_ns", "service.op_samples", "service.dup_covered_ratio", "service.sweeps",
		"store.put1_ns", "store.puts", "store.cached_runall_ns", "engine.render_ns"},
	"sim-scale": {"sim.run_ns.ring10k", "sim.run_ns.dynamic20churn", "sim.msgs_per_s", "sim.msgs_per_s.typed",
		"sim.msgs_per_s.reference", "sim.deliver_ns.typed", "sim.deliver_ns.reference", "core.step_ns.ring", "core.step_ns.parallel",
		"core.step_calls", "adversary.step_ns", "adversary.sends", "async.events_per_s", "engine.rounds"},
}

var everyRun = []string{"process.mallocs_per_op", "machine.calib_ms_before", "machine.calib_ms_after",
	"bench.oracle_s", "bench.trace_overhead_ratio"}

// TestQuickSmoke runs every workload at 1/50 size, both passes, with
// every oracle check on.
func TestQuickSmoke(t *testing.T) {
	for _, wd := range workloadDefs {
		t.Run(wd.Name, func(t *testing.T) {
			o := options{workload: wd.Name, seed: 5, seconds: 0.2, quick: true, outDir: t.TempDir()}
			line, err := runWorkload(o)
			if err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
				t.Errorf("end-to-end pass: correct=%v attempted=%d failed=%d", line.Correct, line.Attempted, line.Failed)
			}
			if len(line.Metrics) != len(endToEnd) {
				t.Errorf("end-to-end pass reports %d metrics, want %d", len(line.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if v, ok := line.Metrics[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", d.Name, v, ok, d.Unit)
				}
			}

			o.trace = 1
			line, err = runWorkload(o)
			if err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Failed != 0 {
				t.Errorf("traced pass: correct=%v failed=%d", line.Correct, line.Failed)
			}
			if len(line.Metrics) != len(perLayer) {
				t.Errorf("traced pass reports %d metrics, want %d", len(line.Metrics), len(perLayer))
			}
			for _, name := range append(mustMove[wd.Name], everyRun...) {
				if line.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want it measured", name, line.Metrics[name].Value)
				}
			}
			if v := line.Metrics["sim.decorated_discarded"].Value; v != 0 {
				t.Errorf("%v decorated runs did not reproduce the engine's", v)
			}
			b, err := os.ReadFile(filepath.Join(o.outDir, "trace-"+wd.Name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var spans []span
			if err := json.Unmarshal(b, &spans); err != nil || len(spans) == 0 {
				t.Errorf("trace file: %d spans, err %v", len(spans), err)
			}
			if left, _ := filepath.Glob(filepath.Join(o.outDir, "tmp-*")); len(left) != 0 {
				t.Errorf("scratch directories left behind: %v", left)
			}
		})
	}
}

func TestRunWorkloadRejectsBadInput(t *testing.T) {
	for _, o := range []options{
		{workload: "no-such", seed: 1, seconds: 1},
		{workload: "sim-scale", seed: 1, seconds: 0},
	} {
		o.outDir = t.TempDir()
		if _, err := runWorkload(o); err == nil {
			t.Errorf("runWorkload(%+v) succeeded", o)
		}
	}
}

// TestAnySeedAccepted: the driver chooses the seeds, so 0, negative and
// full-width seeds all parse and fold onto a seed the generators take.
func TestAnySeedAccepted(t *testing.T) {
	seen := map[uint64]string{}
	for _, s := range []string{"0", "1", "2", "16777215", "16777216", "4294967295", "-1", "-7", "9223372036854775807"} {
		raw, err := parseSeed(s)
		if err != nil {
			t.Fatalf("parseSeed(%q): %v", s, err)
		}
		f := foldSeed(raw)
		if f == 0 || f > maxSeed {
			t.Errorf("foldSeed(%s) = %d, outside 1..%d", s, f, uint64(maxSeed))
		}
		if raw > 0 && raw <= maxSeed && f != raw {
			t.Errorf("foldSeed(%s) = %d, want it kept", s, f)
		}
		if prev, dup := seen[f]; dup && prev != s {
			t.Errorf("seeds %s and %s fold to the same %d", prev, s, f)
		}
		seen[f] = s
	}
	if _, err := parseSeed("x1"); err == nil {
		t.Error("parseSeed accepted a non-number")
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// TestManifestMatchesTables keeps BENCHMARK.json, which the driver
// reads, equal to the tables this program measures by, and inside the
// contract's limits. On a mismatch it logs the file it expects.
func TestManifestMatchesTables(t *testing.T) {
	want := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 20,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, wd := range workloadDefs {
		want.Workloads = append(want.Workloads, workloadDef{Name: wd.Name, Why: wd.Why})
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		exp, _ := json.MarshalIndent(want, "", "  ")
		t.Errorf("BENCHMARK.json differs from the program's tables; expected file:\n%s", exp)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, wd := range want.Workloads {
		if !name.MatchString(wd.Name) || seen[wd.Name] || len(wd.Why) > 200 {
			t.Errorf("workload %q: bad or repeated name, or a why of %d characters", wd.Name, len(wd.Why))
		}
		seen[wd.Name] = true
	}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] || !unit.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
			t.Errorf("metric %+v: bad or repeated name, unit or direction", d)
		}
		seen[d.Name] = true
		hasSetup = hasSetup || d == metricDef{"setup_s", "s", lower, d.Bound}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup || len(endToEnd) > 16 || len(perLayer) > 128 || len(want.Workloads) < 2 || len(want.Workloads) > 8 || len(b) > 64<<10 {
		t.Errorf("contract limits: setup_s present %v, %d end-to-end, %d per-layer, %d workloads, %d bytes",
			hasSetup, len(endToEnd), len(perLayer), len(want.Workloads), len(b))
	}
}
