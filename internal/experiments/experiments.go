// Package experiments regenerates every table/series of the
// reproduction (E1–E10 in DESIGN.md). The paper under reproduction is
// a theory paper whose evaluation is its set of theorems; each
// experiment here turns one theorem (resiliency bound, round bound,
// convergence rate, impossibility construction) into a measured table.
//
// Each Ei function is deterministic for a given seed and returns one or
// more Tables. The cmd/idonly-bench binary prints them, and
// EXPERIMENTS.md records paper-claim vs measured output.
package experiments

import (
	"fmt"
	"io"
	"runtime"
	"strings"

	"idonly/internal/engine"
)

// Table is one regenerated table or figure-series.
type Table struct {
	ID      string   // experiment id, e.g. "E1"
	Title   string   // short description
	Claim   string   // the paper claim being checked
	Columns []string // column headers
	Rows    [][]string
}

// Row appends a formatted row.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(w, "claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var head strings.Builder
	for i, c := range t.Columns {
		fmt.Fprintf(&head, "%-*s  ", widths[i], c)
	}
	fmt.Fprintln(w, strings.TrimRight(head.String(), " "))
	fmt.Fprintln(w, strings.Repeat("-", len(strings.TrimRight(head.String(), " "))))
	for _, r := range t.Rows {
		var line strings.Builder
		for i, c := range r {
			fmt.Fprintf(&line, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(line.String(), " "))
	}
	fmt.Fprintln(w)
}

// Experiment couples an id with its generator.
type Experiment struct {
	ID   string
	Name string
	Run  func(seed uint64) []Table
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "reliable broadcast vs known-n baseline", E1},
		{"E2", "resiliency boundary n=3f vs n=3f+1", E2},
		{"E3", "rotor-coordinator termination and good rounds", E3},
		{"E4", "consensus round complexity in f", E4},
		{"E5", "id-only consensus vs phase king", E5},
		{"E6", "approximate agreement convergence", E6},
		{"E7", "asynchrony/semi-synchrony impossibility", E7},
		{"E8", "parallel consensus scaling", E8},
		{"E9", "dynamic total ordering under churn", E9},
		{"E10", "ablations (substitution rule, dedup, thresholds)", E10},
	}
}

// Parallelism is the worker-pool width every sweep below fans its
// independent runs across (via the engine's deterministic parallel
// map). Each run seeds its own ids.Rand and results are assembled in
// index order, so the tables are byte-identical for any value; the
// default uses every core. cmd/idonly-bench overrides it with -workers.
var Parallelism = runtime.GOMAXPROCS(0)

// pmap fans fn(0..n-1) across the engine worker pool and returns the
// results in index order.
func pmap[T any](n int, fn func(i int) T) []T {
	return engine.Map(Parallelism, n, fn)
}

// maxInt is a tiny helper (no generics needed for two ints).
func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
