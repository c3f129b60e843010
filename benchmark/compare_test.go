package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lowerIsBetter := metricDef{Name: "op_p50_ms", Unit: "ms", Better: lower, Bound: 0.10}
	higherIsBetter := metricDef{Name: "scenarios_per_s", Unit: "1/s", Better: higher, Bound: 0.10}
	for _, tc := range []struct {
		name    string
		def     metricDef
		a, b    []float64
		ratio   float64
		verdict string
	}{
		{"lower, B 5% slower", lowerIsBetter, []float64{100}, []float64{105}, 1.05, verdictWithin},
		{"lower, B 20% slower", lowerIsBetter, []float64{100}, []float64{120}, 1.2, verdictWorse},
		{"lower, B 20% faster", lowerIsBetter, []float64{100}, []float64{80}, 0.8, verdictBetter},
		{"higher, B 20% more", higherIsBetter, []float64{100}, []float64{120}, 1.2, verdictBetter},
		{"higher, B 20% less", higherIsBetter, []float64{100}, []float64{80}, 0.8, verdictWorse},
		{"steady repeats resolve", lowerIsBetter, []float64{99, 100, 101, 100}, []float64{119, 120, 121, 120}, 1.2, verdictWorse},
		{"noisy repeats do not", lowerIsBetter, []float64{80, 100, 120, 100}, []float64{119, 120, 121, 120}, 1.2, verdictUnresolved},
	} {
		ratio, verdict := judge(tc.def, tc.a, tc.b)
		if verdict != tc.verdict || ratio < tc.ratio-1e-9 || ratio > tc.ratio+1e-9 {
			t.Errorf("%s: judge = %v, %s; want %v, %s", tc.name, ratio, verdict, tc.ratio, tc.verdict)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		rf := resultFile{Env: environment{Commit: name}}
		for _, wd := range workloadDefs {
			rf.Runs = append(rf.Runs, runRecord{Workload: wd.Name, Seed: 1, resultLine: resultLine{
				Correct: true, Attempted: 1,
				Metrics: map[string]metricValue{"op_p50_ms": {p50, "ms"}, "setup_s": {2, "s"}},
			}})
		}
		b, err := json.Marshal(rf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b := write("a", 10), write("b", 13)
	var out bytes.Buffer
	outside, err := compareFiles(&out, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if outside != len(workloadDefs) { // op_p50_ms is worse on every workload, setup_s within bound
		t.Errorf("outside = %d, want %d\n%s", outside, len(workloadDefs), out.String())
	}
	for _, want := range []string{"op_p50_ms [ms, lower is better, bound 0.25]", "sweep-warm", "B/A 1.3000  worse", "B/A 1.0000  within-bound"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
