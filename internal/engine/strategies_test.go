package engine_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"idonly/internal/engine"
	"idonly/internal/obs"
	"idonly/internal/service"
	"idonly/internal/simtest"
	"idonly/internal/store"
)

// A row is a pinned spec list: the scenarios of one sweep and the grid
// name its report carries.
type row struct {
	name  string
	grid  string
	specs []engine.Scenario
	// asked is the grid the row expands from, when it is one: the
	// service columns ask the service for it.
	asked *engine.Grid
	// recompute marks the cheap rows, which the columns that compute a
	// row again play (one worker, hooks, cold, half-warm, four callers).
	// On replay (2.6 CPU-s a sweep), the small grid (0.23) or its
	// churn-only shape (0.13) they would make the matrix slower than the
	// pairwise tests it replaced.
	recompute bool
	boxed     bool // the row's point is the typed plane: NoFastPath plays it
}

func gridRow(name string, g engine.Grid, recompute, boxed bool) row {
	return row{name: name, grid: g.Name, specs: g.Scenarios(), asked: &g, recompute: recompute, boxed: boxed}
}

// sweepRows are the pinned spec lists: the small grid; its shape with
// the churn axis replaced by one loaded spec, under the chaos adversary
// (junk payloads outside every wire union), and under replay (the one
// reading adversary every wire-union plane carries); the ring under
// chaos; every fast-path cell, churned ones included (eligibleSpecs); a
// churned grid with headroom for a graceful leave; and, unless -short,
// the ring flood at n = 10 000.
func sweepRows(t testing.TB) []row {
	small, err := engine.PresetGrid("small")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := engine.ParseChurn("j2,l1,fj1,fl1")
	if err != nil {
		t.Fatal(err)
	}
	churned := small
	churned.Churns = []engine.Churn{spec}
	chaos := small
	chaos.Adversaries = []string{engine.AdvChaos}
	ringChaos := chaos
	ringChaos.Protocols = []string{engine.ProtoRing}
	ringChaos.Sizes = []int{7, 14, 32}
	replay := small
	replay.Adversaries = []string{engine.AdvReplay}
	churnGrid := engine.Grid{
		Name:        "churn-test",
		Protocols:   []string{engine.ProtoDynamic, engine.ProtoRBroadcast, engine.ProtoConsensus},
		Adversaries: []string{engine.AdvSilent, engine.AdvSplit},
		// n = 11 → f = 3 leaves headroom for one graceful leave
		// (n - 3f - 1 = 1).
		Sizes:  []int{11},
		Seeds:  []uint64{1, 2, 3},
		Churns: []engine.Churn{spec},
	}
	rows := []row{
		gridRow("small", small, false, true),
		gridRow("churn-j2,l1,fj1,fl1", churned, false, false),
		gridRow("chaos", chaos, false, false),
		gridRow("ring-chaos", ringChaos, true, false),
		gridRow("replay", replay, false, false),
		{name: "eligible", grid: "fastpath", specs: engine.EligibleSpecs(), boxed: true},
		gridRow("churn-grid", churnGrid, true, false),
	}
	if !testing.Short() {
		rows = append(rows, row{name: "ring10k", grid: "scale-smoke", boxed: true,
			specs: []engine.Scenario{{Protocol: engine.ProtoRing, Adversary: engine.AdvNone, N: 10000, Seed: 1}}})
	}
	return rows
}

// A strategy is one way to produce a row's report: a column of the
// matrix. plays picks the rows it plays. sweep gets the reference
// report, from whose results the columns that start warm fill their
// stores, and returns the content digest of the report it produced.
type strategy struct {
	name  string
	plays func(row) bool
	sweep func(t *testing.T, r row, ref *engine.Report) string
}

func everyRow(row) bool     { return true }
func recomputed(r row) bool { return r.recompute }
func boxedRow(r row) bool   { return r.boxed }
func askedRow(r row) bool   { return r.asked != nil }

// strategies is the one strategy list; RunAll at 2 workers, every
// row's reference, is not in it. Adding a way to produce a report is
// adding an entry.
var strategies = []strategy{
	// The small grid at one worker, too: the engine's core contract.
	{"workers=1", func(r row) bool { return r.recompute || r.name == "small" }, func(t *testing.T, r row, _ *engine.Report) string {
		return digest(t, runAll(r, 1))
	}},
	{"no-fast-path", boxedRow, func(t *testing.T, r row, _ *engine.Report) string { return digest(t, noFastPath(r)) }},
	{"hooks", recomputed, func(t *testing.T, r row, _ *engine.Report) string { return digest(t, hooked(r)) }},
	{"cold", recomputed, func(t *testing.T, r row, _ *engine.Report) string {
		return cached(t, storeWith(t, t.TempDir(), nil), r, 0)
	}},
	{"warm", everyRow, func(t *testing.T, r row, ref *engine.Report) string {
		return cached(t, storeWith(t, t.TempDir(), ref.Results), r, len(r.specs))
	}},
	{"reopened", everyRow, func(t *testing.T, r row, ref *engine.Report) string {
		dir := t.TempDir()
		if err := storeWith(t, dir, ref.Results).Close(); err != nil {
			t.Fatal(err)
		}
		return cached(t, storeWith(t, dir, nil), r, len(r.specs))
	}},
	{"half-warm", recomputed, func(t *testing.T, r row, ref *engine.Report) string {
		var half []engine.Result // every other result: the misses interleave with the hits
		for i := 0; i < len(ref.Results); i += 2 {
			half = append(half, ref.Results[i])
		}
		return cached(t, storeWith(t, t.TempDir(), half), r, len(half))
	}},
	{"four-callers", recomputed, fourCallers},
	{"served-canonical", askedRow, func(t *testing.T, r row, ref *engine.Report) string {
		sum := sha256.Sum256(served(t, r, ref, "?format=canonical"))
		return hex.EncodeToString(sum[:])
	}},
	{"served-ndjson", askedRow, servedNDJSON},
}

// TestSweepStrategies is the sweep matrix: every row on every strategy
// that plays it, in subtests named row/strategy, each reproducing the
// row's pinned content digest. A row's reference, RunAll at 2 workers,
// runs first and must match the whole pin: digest, rounds and messages.
func TestSweepStrategies(t *testing.T) {
	t.Parallel()
	pins := contentPins[engine.ScenarioDigestVersion]
	for _, r := range sweepRows(t) {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			ref := r.reference(t)
			if errs := ref.Errors(); len(errs) > 0 {
				t.Fatalf("%d scenarios failed; first: %s: %s", len(errs), errs[0].Scenario.Name, errs[0].Err)
			}
			want := pins[r.name]
			if got := pinOf(t, ref); got != want {
				t.Fatalf("the row computed different results under unchanged scenarioDigestVersion %q:\n"+
					"  got  %+v\n  want %+v\n"+
					"Fix: if the change is intended, bump scenarioDigestVersion (stores keyed by the old version\n"+
					"would serve stale results as hits); TestContentPins then prints the row set to paste.",
					engine.ScenarioDigestVersion, got, want)
			}
			for _, st := range strategies {
				if !st.plays(r) {
					continue
				}
				t.Run(st.name, func(t *testing.T) {
					t.Parallel()
					if got := st.sweep(t, r, ref); got != want.Digest {
						t.Fatalf("content digest %s, want %s", got, want.Digest)
					}
				})
			}
		})
	}
}

// TestContentPins enforces the digest contract's other direction: a
// bumped scenarioDigestVersion needs a row set of its own. Without one
// it sweeps every row and prints the row set to paste.
func TestContentPins(t *testing.T) {
	rows := sweepRows(t)
	pins := contentPins[engine.ScenarioDigestVersion]
	if !slices.ContainsFunc(rows, func(r row) bool { _, ok := pins[r.name]; return !ok }) {
		return
	}
	var repin strings.Builder
	fmt.Fprintf(&repin, "\t%q: {\n", engine.ScenarioDigestVersion)
	for _, r := range rows {
		p := pinOf(t, runAll(r, 2))
		fmt.Fprintf(&repin, "\t\t%q: {%q, %d, %d},\n", r.name, p.Digest, p.Rounds, p.Messages)
	}
	repin.WriteString("\t},\n")
	t.Fatalf("scenarioDigestVersion is %q but contentPins has no complete row set for it.\n"+
		"Fix: re-pin — add this row set under the new version (and keep the old ones):\n%s",
		engine.ScenarioDigestVersion, repin.String())
}

// FuzzSweepStrategies makes fuzzed spec lists rows of the store-free
// columns: the reports at 3 workers, on the boxed plane and with hooks
// on must each be the typed report at 1 worker, byte for byte.
func FuzzSweepStrategies(f *testing.F) {
	// dynamic/chaos at n = 14 with every kind of churn, consensus under
	// replay losing a faulty node, and the other protocols' cells.
	f.Add([]byte{5, 3, 13, 1, 0x0f, 2, 4, 9, 7, 0x08})
	f.Add([]byte{0, 2, 6, 3, 0, 1, 1, 6, 4, 0, 3, 3, 9, 5, 0x04, 4, 2, 9, 6, 0x0c, 6, 3, 13, 2, 0x0c})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := row{name: "fuzz", grid: "fuzz", specs: decodeSpecs(data)}
		want := digest(t, runAll(r, 1))
		for name, rep := range map[string]*engine.Report{"workers=3": runAll(r, 3), "no-fast-path": noFastPath(r), "hooks": hooked(r)} {
			if got := digest(t, rep); got != want {
				t.Fatalf("%s: content digest %s, the typed report's at 1 worker %s (specs %+v)", name, got, want, r.specs)
			}
		}
	})
}

// decodeSpecs reads at most six scenarios from fuzz bytes, five bytes
// each: a protocol (the six of Protocols() and ring), an adversary
// (Adversaries(), chaos included), n from 1 to 14, a seed, and a churn
// byte whose low four bits ask for a correct join, a graceful leave, a
// faulty join and a faulty removal. Each is expanded as a one-cell
// grid, so f is the most n allows and the churn is clamped to the cell.
func decodeSpecs(data []byte) []engine.Scenario {
	protos := append(engine.Protocols(), engine.ProtoRing)
	advs := engine.Adversaries()
	var specs []engine.Scenario
	for ; len(data) >= 5 && len(specs) < 6; data = data[5:] {
		c := int(data[4])
		specs = append(specs, engine.Grid{
			Protocols:   []string{protos[int(data[0])%len(protos)]},
			Adversaries: []string{advs[int(data[1])%len(advs)]},
			Sizes:       []int{1 + int(data[2])%14},
			Seeds:       []uint64{uint64(data[3])},
			Churns:      []engine.Churn{{Joins: c & 1, Leaves: c >> 1 & 1, FaultyJoins: c >> 2 & 1, FaultyLeaves: c >> 3 & 1}},
		}.Scenarios()...)
	}
	return specs
}

// reference is the row's report from RunAll at 2 workers; the small
// grid's is the one the codec tests sweep that way.
func (r row) reference(t testing.TB) *engine.Report {
	if r.name == "small" {
		return engine.SmallGridReport(t)
	}
	return runAll(r, 2)
}

func runAll(r row, workers int) *engine.Report {
	return engine.RunAll(r.specs, engine.Options{Workers: workers, Grid: r.grid})
}

func noFastPath(r row) *engine.Report {
	specs := append([]engine.Scenario(nil), r.specs...)
	for i := range specs {
		specs[i].NoFastPath = true
	}
	return engine.RunAll(specs, engine.Options{Workers: 2, Grid: r.grid})
}

// hooked sweeps with every hook installed: metrics, a span sink and a
// run record.
func hooked(r row) *engine.Report {
	run := obs.NewRunRegistry(0).NewRun("sweep", r.grid, len(r.specs), 2)
	defer run.Finish()
	return engine.RunAll(r.specs, engine.Options{Workers: 2, Grid: r.grid, Hooks: engine.Hooks{
		Obs: engine.NewObs(obs.NewRegistry()), Span: func(engine.Span) {}, Run: run,
	}})
}

// cached sweeps r through st with CachedRunAll, which must serve hits
// scenarios from the store and compute the rest.
func cached(t *testing.T, st *store.Store, r row, hits int) string {
	t.Helper()
	rep, stats, err := store.CachedRunAll(st, r.specs, engine.Options{Workers: 2, Grid: r.grid})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hits != hits || stats.Misses != len(r.specs)-hits {
		t.Fatalf("cache stats %+v, want %d hits of %d", stats, hits, len(r.specs))
	}
	return digest(t, rep)
}

// fourCallers sweeps r through one fresh store from four concurrent
// callers: each must get the row's report, and the misses they share
// must be computed once between them.
func fourCallers(t *testing.T, r row, _ *engine.Report) string {
	st := storeWith(t, t.TempDir(), nil)
	eo := engine.NewObs(obs.NewRegistry())
	digests, errs := make([]string, 4), make([]error, 4)
	simtest.Concurrently(len(digests), func(i int) {
		rep, _, err := store.CachedRunAll(st, r.specs, engine.Options{Workers: 2, Grid: r.grid, Hooks: engine.Hooks{Obs: eo}})
		if errs[i] = err; err == nil {
			digests[i], errs[i] = rep.ContentDigest()
		}
	})
	for i, d := range digests {
		if errs[i] != nil || d != digests[0] {
			t.Fatalf("caller %d: content digest %s (err %v), caller 0's %s", i, d, errs[i], digests[0])
		}
	}
	if got := eo.Computed.Value(); got != int64(len(r.specs)) {
		t.Fatalf("the callers computed %d scenarios, want each of the %d once", got, len(r.specs))
	}
	return digests[0]
}

// served asks a service over a store filled with the reference results
// for the row's grid, with query appended to /v1/sweep.
func served(t *testing.T, r row, ref *engine.Report, query string) []byte {
	t.Helper()
	ts := httptest.NewServer(service.New(service.Config{Store: storeWith(t, t.TempDir(), ref.Results), Workers: 2}))
	defer ts.Close()
	req, err := json.Marshal(service.SweepRequest{Grid: r.asked})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweep"+query, "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	return body
}

// servedNDJSON reassembles the report from the service's NDJSON
// stream, whose trailer must carry the same content digest.
func servedNDJSON(t *testing.T, r row, ref *engine.Report) string {
	var rep engine.Report
	var tr service.SweepTrailer
	sc := bufio.NewScanner(bytes.NewReader(served(t, r, ref, "")))
	for sc.Scan() {
		var res engine.Result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, sc.Bytes())
		}
		if res.Scenario.Protocol != "" {
			rep.Results = append(rep.Results, res)
		} else if err := json.Unmarshal(sc.Bytes(), &tr); err != nil {
			t.Fatalf("bad trailer: %v\n%s", err, sc.Bytes())
		}
	}
	if tr.Cache.Hits != len(r.specs) {
		t.Fatalf("trailer cache %+v, want every one of %d scenarios a hit", tr.Cache, len(r.specs))
	}
	rep.Grid, rep.Scenarios, rep.Groups = tr.Grid, tr.Scenarios, tr.Groups
	d := digest(t, &rep)
	if tr.ReportDigest != d {
		t.Fatalf("the trailer's report digest %s, the streamed report's %s", tr.ReportDigest, d)
	}
	return d
}

// storeWith opens the store in dir and adds results to it.
func storeWith(t *testing.T, dir string, results []engine.Result) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err == nil && len(results) > 0 {
		err = st.PutBatch(results)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func pinOf(t testing.TB, rep *engine.Report) contentPin {
	p := contentPin{Digest: digest(t, rep)}
	for _, res := range rep.Results {
		p.Rounds += int64(res.Rounds)
		p.Messages += res.MessagesDelivered
	}
	return p
}

func digest(t testing.TB, rep *engine.Report) string {
	t.Helper()
	d, err := rep.ContentDigest()
	if err != nil {
		t.Fatal(err)
	}
	return d
}
