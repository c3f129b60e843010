package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Report is the outcome of one sweep: per-scenario results in input
// order plus per-cell aggregates in sorted key order.
//
// Workers, ElapsedNS and the per-result WallNS fields describe how fast
// the sweep ran, not what it computed; Canonical zeroes them so the
// remaining bytes are identical for any worker count.
type Report struct {
	Grid      string   `json:"grid,omitempty"`
	Scenarios int      `json:"scenarios"`
	Workers   int      `json:"workers,omitempty"`
	ElapsedNS int64    `json:"elapsed_ns,omitempty"`
	Groups    []Group  `json:"groups"`
	Results   []Result `json:"results"`
}

// Errors returns the results that failed (validation error or protocol
// invariant violation).
func (r *Report) Errors() []Result {
	var out []Result
	for _, res := range r.Results {
		if res.Err != "" {
			out = append(out, res)
		}
	}
	return out
}

// CanonicalBytes returns the deterministic JSON form of the report:
// the full report with every timing field (Workers, ElapsedNS, WallNS)
// and the allocation gauge (InboxGrows) zeroed. Two sweeps of the same
// scenarios produce byte-identical canonical output regardless of
// worker count — and regardless of delivery-path buffer tuning — this
// is the determinism contract the engine tests enforce, and the bytes
// the result store's content digests are computed over.
//
// The bytes are json.MarshalIndent's with a two-space indent, plus a
// final newline, written by the hand-written codec (codec.go) in one
// pass; the error is always nil.
func (r *Report) CanonicalBytes() ([]byte, error) {
	w := jsonOut{b: make([]byte, 0, canonicalSizeHint(r)), canonical: true}
	w.report(r)
	return append(w.b, '\n'), nil
}

// canonicalSizeHint is a capacity for the canonical bytes that covers
// the small preset grid's report without regrowing (193 670 bytes): its
// results average 604 bytes indented, its groups 363.
func canonicalSizeHint(r *Report) int {
	return 64 + 640*len(r.Results) + 384*len(r.Groups)
}

// Canonical is the panic-on-error convenience form of CanonicalBytes,
// for contexts (tests, examples) where a marshal failure — impossible
// for a Report produced by this package — should simply crash.
func (r *Report) Canonical() []byte {
	b, err := r.CanonicalBytes()
	if err != nil {
		panic(err)
	}
	return b
}

// WriteJSON emits the full report, timings included, as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText emits a human-readable summary: one line per aggregation
// cell, then any errors, then the timing footer.
//
// The decided column follows each protocol's actual terminal
// predicate: x/y runs in which every counted node reached it (for
// reliable broadcast, acceptance of the source's message), or "n/a"
// for protocols with no terminal predicate at all (the dynamic
// ordering service, which runs until the simulation stops). The lag
// column is the worst finality lag of the dynamic protocol's surviving
// nodes ("-" elsewhere).
func (r *Report) WriteText(w io.Writer) {
	if r.Grid != "" {
		fmt.Fprintf(w, "grid %s: %d scenarios\n", r.Grid, r.Scenarios)
	} else {
		fmt.Fprintf(w, "%d scenarios\n", r.Scenarios)
	}
	fmt.Fprintf(w, "%-11s %-7s %5s %4s %-15s  %5s %8s %8s  %13s %13s  %-7s %s\n",
		"protocol", "adv", "n", "f", "churn", "runs", "rnd p50", "rnd max", "msgs p50", "msgs max", "decided", "lag max")
	for _, g := range r.Groups {
		churn := g.Key.Churn
		if churn == "" {
			churn = "-"
		}
		decided := fmt.Sprintf("%d/%d", g.DecidedAll, g.Count)
		lag := "-"
		if g.DecidedNA {
			decided = "n/a"
			lag = fmt.Sprint(g.LagMax)
		}
		fmt.Fprintf(w, "%-11s %-7s %5d %4d %-15s  %5d %8d %8d  %13d %13d  %-7s %s\n",
			g.Key.Protocol, g.Key.Adversary, g.Key.N, g.Key.F, churn,
			g.Count, g.RoundsP50, g.RoundsMax, g.MsgsP50, g.MsgsMax,
			decided, lag)
	}
	for _, e := range r.Errors() {
		fmt.Fprintf(w, "ERROR %s: %s\n", e.Scenario.Name, e.Err)
	}
	if r.ElapsedNS > 0 {
		fmt.Fprintf(w, "elapsed %v with %d workers\n",
			time.Duration(r.ElapsedNS).Round(time.Millisecond), r.Workers)
	}
}
