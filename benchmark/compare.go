package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Verdicts of comparing one end-to-end metric on one workload.
const (
	verdictBetter     = "better"       // B beats A by more than the metric's bound
	verdictWorse      = "worse"        // B loses to A by more than the bound
	verdictWithin     = "within-bound" // the medians differ by no more than the bound
	verdictUnresolved = "unresolved"   // either side's repeats spread wider than the bound
)

// judge compares the repeats of one metric from two result files. The
// ratio is B's median over A's: A is the base.
func judge(def metricDef, a, b []float64) (ratio float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return math.NaN(), verdictUnresolved
	}
	ratio = mb / ma
	for _, side := range [][]float64{a, b} {
		if spread, ok := quartileSpread(side); ok && spread > def.Bound {
			return ratio, verdictUnresolved
		}
	}
	change := ratio - 1 // share of the base by which B is higher
	if def.Better == lower {
		change = -change
	}
	switch {
	case change > def.Bound:
		return ratio, verdictBetter
	case change < -def.Bound:
		return ratio, verdictWorse
	}
	return ratio, verdictWithin
}

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// values collects a metric's value from every untraced (trace 0) or
// traced (trace 1) run of one workload.
func (rf resultFile) values(workload, metric string, trace int) []float64 {
	var out []float64
	for _, r := range rf.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			out = append(out, v.Value)
		}
	}
	return out
}

// compareFiles prints, per end-to-end metric, one row per workload:
// both medians, the ratio B/A, and the verdict. It returns how many
// rows were not within-bound.
func compareFiles(w io.Writer, pathA, pathB string) (outside int, err error) {
	a, err := readResultFile(pathA)
	if err != nil {
		return 0, err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "A = %s (commit %s)\nB = %s (commit %s)\n", pathA, a.Env.Commit, pathB, b.Env.Commit)
	for _, def := range endToEnd {
		fmt.Fprintf(w, "\n%s [%s, %s is better, bound %.2f]\n", def.Name, def.Unit, def.Better, def.Bound)
		for _, wd := range workloadDefs {
			va, vb := a.values(wd.Name, def.Name, 0), b.values(wd.Name, def.Name, 0)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ratio, verdict := judge(def, va, vb)
			if verdict != verdictWithin {
				outside++
			}
			fmt.Fprintf(w, "  %-12s A %14.4f  B %14.4f  B/A %.4f  %s\n", wd.Name, median(va), median(vb), ratio, verdict)
		}
	}
	return outside, nil
}

// calibTolerance is how far the calibration spin may move between the
// two ends of a run before the machine, not the code, is blamed.
const calibTolerance = 0.05

// runSelfcheck runs the whole benchmark, traced pass included, twice
// on the same code. It fails if any end-to-end metric differs between
// the two by more than its own bound, or if the machine drifted inside
// a run.
func runSelfcheck(o options) error {
	o.trace = 1
	var files [2]string
	drifted := 0
	for i, name := range []string{"selfcheck-a.json", "selfcheck-b.json"} {
		rf, err := runAll(o, name)
		if err != nil {
			return err
		}
		files[i] = filepath.Join(o.outDir, name)
		for _, r := range rf.Runs {
			before, after := r.Metrics["machine.calib_ms_before"].Value, r.Metrics["machine.calib_ms_after"].Value
			if r.Trace == 1 && math.Abs(after-before) > calibTolerance*before {
				drifted++
				logf("machine drifted during %s (%s): calibration %.1f ms before, %.1f ms after", r.Workload, name, before, after)
			}
		}
	}
	outside, err := compareFiles(os.Stdout, files[0], files[1])
	if err != nil {
		return err
	}
	if outside > 0 || drifted > 0 {
		return fmt.Errorf("selfcheck: %d metric/workload pairs differ between two runs of the same code; the machine drifted in %d traced passes", outside, drifted)
	}
	return nil
}
