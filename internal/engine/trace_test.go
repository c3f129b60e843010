package engine

import (
	"strings"
	"sync"
	"testing"

	"idonly/internal/obs"
)

func testSpecs() []Scenario {
	return Grid{
		Name:        "trace-test",
		Protocols:   []string{ProtoConsensus, ProtoRBroadcast},
		Adversaries: []string{AdvSilent},
		Sizes:       []int{7},
		Seeds:       []uint64{1, 2},
	}.Scenarios()
}

// TestRunAllHooks: every scenario yields exactly one span with
// plausible phase timings, and the registry counters add up.
func TestRunAllHooks(t *testing.T) {
	reg := obs.NewRegistry()
	eo := NewObs(reg)
	var mu sync.Mutex
	var spans []Span
	specs := testSpecs()
	rep := RunAll(specs, Options{Workers: 2, Hooks: Hooks{
		Obs:  eo,
		Span: func(sp Span) { mu.Lock(); spans = append(spans, sp); mu.Unlock() },
	}})
	if len(spans) != len(specs) {
		t.Fatalf("%d spans for %d scenarios", len(spans), len(specs))
	}
	seen := make(map[int]bool)
	for _, sp := range spans {
		if seen[sp.Seq] {
			t.Fatalf("duplicate span for seq %d", sp.Seq)
		}
		seen[sp.Seq] = true
		if sp.Digest != specs[sp.Seq].Digest() {
			t.Fatalf("span %d digest mismatch", sp.Seq)
		}
		if sp.Scenario == "" || sp.Cached {
			t.Fatalf("bad computed span: %+v", sp)
		}
		if sp.BuildNS <= 0 || sp.RunNS <= 0 || sp.WallNS < sp.BuildNS+sp.RunNS {
			t.Fatalf("implausible phases: %+v", sp)
		}
		if sp.Rounds != rep.Results[sp.Seq].Rounds || sp.Messages != rep.Results[sp.Seq].MessagesDelivered {
			t.Fatalf("span %d disagrees with its result", sp.Seq)
		}
	}
	if got := eo.Computed.Value(); got != int64(len(specs)) {
		t.Fatalf("computed counter %d, want %d", got, len(specs))
	}
	if eo.Cached.Value() != 0 || eo.Errors.Value() != 0 {
		t.Fatalf("unexpected cached/error counts: %d/%d", eo.Cached.Value(), eo.Errors.Value())
	}
	var rounds int64
	for _, r := range rep.Results {
		rounds += int64(r.Rounds)
	}
	if eo.Rounds.Value() != rounds {
		t.Fatalf("rounds counter %d, want %d", eo.Rounds.Value(), rounds)
	}
	if eo.Build.Count() != int64(len(specs)) || eo.Run.Count() != int64(len(specs)) || eo.Agg.Count() != 1 {
		t.Fatalf("histogram counts build=%d run=%d agg=%d",
			eo.Build.Count(), eo.Run.Count(), eo.Agg.Count())
	}
}

// TestRunAllFeedsRunRecord: RunAll reports every scenario's progress
// to the caller's run record in Hooks.Run, and the caller finishes it.
func TestRunAllFeedsRunRecord(t *testing.T) {
	runs := obs.NewRunRegistry(0)
	specs := testSpecs()
	run := runs.NewRun("sweep", "trace-test", len(specs), 2)
	RunAll(specs, Options{Workers: 2, Grid: "trace-test", Hooks: Hooks{Run: run}})
	run.Finish()
	active, completed := runs.Snapshots()
	if len(active) != 0 || len(completed) != 1 {
		t.Fatalf("%d active, %d completed runs, want 0 and 1", len(active), len(completed))
	}
	if r := completed[0]; r.Kind != "sweep" || r.Grid != "trace-test" || r.Done != int64(len(specs)) || r.State != obs.RunDone {
		t.Fatalf("run snapshot %+v", r)
	}
}

// TestErrorSpans: a failing scenario still emits a span, with Err set
// and the error counter bumped.
func TestErrorSpans(t *testing.T) {
	reg := obs.NewRegistry()
	eo := NewObs(reg)
	var spans []Span
	bad := Scenario{Protocol: "nope", Adversary: AdvSilent, N: 7, F: 2, Seed: 1}
	res := bad.RunHooked(0, 0, Hooks{Obs: eo, Span: func(sp Span) { spans = append(spans, sp) }})
	if res.Err == "" {
		t.Fatal("expected a validation error")
	}
	if len(spans) != 1 || spans[0].Err == "" {
		t.Fatalf("spans: %+v", spans)
	}
	if eo.Errors.Value() != 1 {
		t.Fatalf("error counter %d", eo.Errors.Value())
	}
}

// TestReadSpansBothShapes: ReadSpans accepts bare span lines, wrapped
// {"span":...} lines, and skips everything else in a sweep stream.
func TestReadSpansBothShapes(t *testing.T) {
	stream := strings.Join([]string{
		`{"scenario":{"name":"x","protocol":"consensus"},"rounds":9}`, // result line: skipped
		`{"seq":0,"scenario":"a","digest":"d0","worker":0,"build_ns":10,"run_ns":20,"wall_ns":35,"rounds":9,"messages":100}`,
		`{"span":{"seq":1,"scenario":"b","digest":"d1","worker":-1,"cached":true,"build_ns":0,"run_ns":0,"wall_ns":5,"rounds":9,"messages":100}}`,
		``,
		`{"groups":[],"scenarios":2}`, // trailer: skipped
	}, "\n")
	spans, err := ReadSpans(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("%d spans, want 2: %+v", len(spans), spans)
	}
	if spans[0].Digest != "d0" || spans[1].Digest != "d1" || !spans[1].Cached {
		t.Fatalf("parsed spans: %+v", spans)
	}

	sum := SummarizeSpans(spans)
	if sum.Spans != 2 || sum.Cached != 1 || sum.WallNS != 40 || sum.Rounds != 18 {
		t.Fatalf("summary: %+v", sum)
	}
	slow := SlowestSpans(spans, 1)
	if len(slow) != 1 || slow[0].Digest != "d0" {
		t.Fatalf("slowest: %+v", slow)
	}
	for _, k := range []int{0, -1} {
		if slow := SlowestSpans(spans, k); len(slow) != 0 {
			t.Fatalf("SlowestSpans(k=%d) = %+v, want none", k, slow)
		}
	}
}
