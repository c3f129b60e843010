package engine

import (
	"bytes"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// mustCanonical is the test-side shim over the error-returning
// CanonicalBytes (the panic-wrapping Canonical stays for callers that
// want it; tests prefer a t.Fatal).
func mustCanonical(t *testing.T, r *Report) []byte {
	t.Helper()
	b, err := r.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		got := Map(workers, 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: index %d got %d", workers, i, v)
			}
		}
	}
}

func TestMapRunsEveryIndexOnce(t *testing.T) {
	var calls [257]atomic.Int32
	Map(8, len(calls), func(i int) struct{} {
		calls[i].Add(1)
		return struct{}{}
	})
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("index %d ran %d times", i, n)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := Map(4, 0, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestScenarioValidate(t *testing.T) {
	bad := []Scenario{
		{Protocol: "nope", Adversary: AdvSilent, N: 7, F: 2, Seed: 1},
		{Protocol: ProtoConsensus, Adversary: "nope", N: 7, F: 2, Seed: 1},
		{Protocol: ProtoConsensus, Adversary: AdvSilent, N: 6, F: 2, Seed: 1}, // n = 3f
		{Protocol: ProtoConsensus, Adversary: AdvSilent, N: 0, F: 0, Seed: 1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("Validate accepted %+v", s)
		}
	}
	ok := Scenario{Protocol: ProtoConsensus, Adversary: AdvSplit, N: 7, F: 2, Seed: 1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("Validate rejected %+v: %v", ok, err)
	}
}

func TestScenarioRunCapturesInvalid(t *testing.T) {
	res := Scenario{Protocol: "nope", Adversary: AdvSilent, N: 7, Seed: 1}.Run()
	if res.Err == "" {
		t.Fatal("invalid scenario produced no error")
	}
}

// TestEveryProtocolAdversaryCell runs one scenario per (protocol,
// adversary) cell and requires a clean outcome: no error, and for the
// deciding protocols under non-jamming adversaries, termination.
func TestEveryProtocolAdversaryCell(t *testing.T) {
	for _, proto := range Protocols() {
		for _, adv := range Adversaries() {
			n := 7
			f := 2
			if adv == AdvNone {
				f = 0
			}
			res := Scenario{Protocol: proto, Adversary: adv, N: n, F: f, Seed: 3}.Run()
			if res.Err != "" {
				t.Fatalf("%s/%s: %s", proto, adv, res.Err)
			}
			if res.Output == "" {
				t.Fatalf("%s/%s: empty output digest", proto, adv)
			}
		}
	}
}

// TestGridDeterminismAcrossWorkerCounts is the engine's core contract:
// a ≥100-scenario grid produces byte-identical canonical reports at
// workers=1 and workers=NumCPU.
func TestGridDeterminismAcrossWorkerCounts(t *testing.T) {
	grid, err := PresetGrid("small")
	if err != nil {
		t.Fatal(err)
	}
	specs := grid.Scenarios()
	if len(specs) < 100 {
		t.Fatalf("small grid has %d scenarios, want >= 100", len(specs))
	}

	seq := RunAll(specs, Options{Workers: 1, Grid: "small"})
	par := RunAll(specs, Options{Workers: runtime.NumCPU(), Grid: "small"})
	if !bytes.Equal(mustCanonical(t, seq), mustCanonical(t, par)) {
		t.Fatalf("canonical reports differ between workers=1 and workers=%d", runtime.NumCPU())
	}

	if errs := seq.Errors(); len(errs) != 0 {
		t.Fatalf("small grid produced %d errors, first: %s: %s", len(errs), errs[0].Scenario.Name, errs[0].Err)
	}
}

func TestPresetGridSizes(t *testing.T) {
	for name, want := range map[string]int{"small": 288, "medium": 864, "large": 1920} {
		g, err := PresetGrid(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(g.Scenarios()); got != want {
			t.Fatalf("%s grid: %d scenarios, want %d", name, got, want)
		}
	}
	if _, err := PresetGrid("nope"); err == nil {
		t.Fatal("unknown grid accepted")
	}
}

func TestProtocolsIncludeDynamic(t *testing.T) {
	found := false
	for _, p := range Protocols() {
		if p == ProtoDynamic {
			found = true
		}
	}
	if !found {
		t.Fatal("Protocols() does not include the dynamic ordering protocol")
	}
}

// TestChurnScenarioDeterminism is the churn half of the engine's
// determinism contract: a grid of churned dynamic scenarios produces
// byte-identical canonical reports at workers=1 and workers=4.
func TestChurnScenarioDeterminism(t *testing.T) {
	grid := Grid{
		Name:        "churn-test",
		Protocols:   []string{ProtoDynamic, ProtoRBroadcast, ProtoConsensus},
		Adversaries: []string{AdvSilent, AdvSplit},
		// n = 11 → f = 3 leaves headroom for one graceful leave
		// (n - 3f - 1 = 1), so the leave path is under the determinism
		// check too.
		Sizes:  []int{11},
		Seeds:  seedRange(3),
		Churns: []Churn{{Joins: 2, Leaves: 1, FaultyJoins: 1, FaultyLeaves: 1}},
	}
	seq := RunAll(grid.Scenarios(), Options{Workers: 1, Grid: grid.Name})
	par := RunAll(grid.Scenarios(), Options{Workers: 4, Grid: grid.Name})
	if !bytes.Equal(mustCanonical(t, seq), mustCanonical(t, par)) {
		t.Fatal("churn grid canonical reports differ between workers=1 and workers=4")
	}
	if errs := seq.Errors(); len(errs) != 0 {
		t.Fatalf("churn grid produced %d errors, first: %s: %s", len(errs), errs[0].Scenario.Name, errs[0].Err)
	}
}

// TestChurnApplied checks that a churn spec actually moves membership:
// joins and leaves are applied, the peak exceeds the start and the
// minimum dips below it.
func TestChurnApplied(t *testing.T) {
	res := Scenario{
		Protocol:  ProtoDynamic,
		Adversary: AdvSplit,
		N:         10, F: 2, Seed: 5,
		Churn: &Churn{Joins: 2, Leaves: 1, FaultyJoins: 1, FaultyLeaves: 1},
	}.Run()
	if res.Err != "" {
		t.Fatalf("churned scenario failed: %s", res.Err)
	}
	// 2 correct joins + 1 late faulty join; 1 graceful leave + 1 faulty
	// removal (the leaver departs only after its sessions drain, so
	// Leaves may lag but the removal is unconditional).
	if res.Joins != 3 {
		t.Fatalf("joins applied = %d, want 3", res.Joins)
	}
	if res.Leaves < 1 {
		t.Fatalf("leaves applied = %d, want >= 1", res.Leaves)
	}
	if res.PeakMembers <= 9 {
		t.Fatalf("peak membership %d never exceeded the initial 9 (n=10 with one faulty held back)", res.PeakMembers)
	}
	if res.MinMembers >= res.PeakMembers {
		t.Fatalf("membership never dipped: min %d, peak %d", res.MinMembers, res.PeakMembers)
	}
	if !res.DecidedNA {
		t.Fatal("dynamic scenario not marked decided-n/a")
	}
	if res.FinalityLag <= 0 {
		t.Fatalf("finality lag %d, want > 0", res.FinalityLag)
	}
}

func TestChurnValidate(t *testing.T) {
	bad := []Scenario{
		// correct-node churn on a protocol with no join discipline
		{Protocol: ProtoConsensus, Adversary: AdvSilent, N: 7, F: 2, Seed: 1, Churn: &Churn{Joins: 1}},
		// leaves through the resiliency floor: 7-1 = 6 <= 3*2
		{Protocol: ProtoDynamic, Adversary: AdvSilent, N: 7, F: 2, Seed: 1, Churn: &Churn{Leaves: 1}},
		// more faulty churn than faulty nodes
		{Protocol: ProtoDynamic, Adversary: AdvSilent, N: 7, F: 2, Seed: 1, Churn: &Churn{FaultyJoins: 2, FaultyLeaves: 1}},
		// negative field
		{Protocol: ProtoDynamic, Adversary: AdvSilent, N: 7, F: 0, Seed: 1, Churn: &Churn{Joins: -1}},
		// a run too short for any churn round to fire
		{Protocol: ProtoConsensus, Adversary: AdvSilent, N: 7, F: 2, Seed: 1, MaxRounds: 2, Churn: &Churn{FaultyJoins: 1, FaultyLeaves: 1}},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("Validate accepted churn spec %+v", s.Churn)
		}
	}
	ok := Scenario{Protocol: ProtoDynamic, Adversary: AdvSilent, N: 10, F: 2, Seed: 1,
		Churn: &Churn{Joins: 1, Leaves: 1, FaultyJoins: 1, FaultyLeaves: 1}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("Validate rejected a legal churn spec: %v", err)
	}
}

// TestRBroadcastDecidedReporting is the regression test for the decided
// misreport: rbroadcast cells used to print "decided 0/N" even when
// every node accepted, because Node.Decided is hard-coded false (the
// protocol defers termination to its host). The decided column now
// reports acceptance.
func TestRBroadcastDecidedReporting(t *testing.T) {
	res := Scenario{Protocol: ProtoRBroadcast, Adversary: AdvNone, N: 5, Seed: 2}.Run()
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	if !res.AllDecided || res.DecidedNodes != 5 || res.DecidedOf != 5 {
		t.Fatalf("rbroadcast decided reporting: all=%v %d/%d, want 5/5",
			res.AllDecided, res.DecidedNodes, res.DecidedOf)
	}
	rep := RunAll([]Scenario{
		{Protocol: ProtoRBroadcast, Adversary: AdvNone, N: 5, Seed: 2},
		{Protocol: ProtoDynamic, Adversary: AdvNone, N: 4, Seed: 2},
	}, Options{Workers: 1})
	var txt bytes.Buffer
	rep.WriteText(&txt)
	if strings.Contains(txt.String(), "0/1") {
		t.Fatalf("report still shows a decided 0/N cell:\n%s", txt.String())
	}
	if !strings.Contains(txt.String(), "n/a") {
		t.Fatalf("dynamic cell not rendered n/a:\n%s", txt.String())
	}
}

func TestAggregateDeterministicOrder(t *testing.T) {
	grid, _ := PresetGrid("small")
	specs := grid.Scenarios()[:40]
	rep := RunAll(specs, Options{Workers: 4})
	for i := 1; i < len(rep.Groups); i++ {
		if !rep.Groups[i-1].Key.less(rep.Groups[i].Key) {
			t.Fatalf("groups not in sorted key order at %d: %+v >= %+v",
				i, rep.Groups[i-1].Key, rep.Groups[i].Key)
		}
	}
	var total int
	for _, g := range rep.Groups {
		total += g.Count
	}
	if total != len(specs) {
		t.Fatalf("groups cover %d results, want %d", total, len(specs))
	}
}

func TestRank(t *testing.T) {
	// nearest-rank: p50 of 4 samples is the 2nd, p90 the 4th.
	if got := rank(50, 4); got != 1 {
		t.Fatalf("rank(50,4) = %d", got)
	}
	if got := rank(90, 4); got != 3 {
		t.Fatalf("rank(90,4) = %d", got)
	}
	if got := rank(50, 1); got != 0 {
		t.Fatalf("rank(50,1) = %d", got)
	}
}

func TestReportEmitters(t *testing.T) {
	grid, _ := PresetGrid("small")
	rep := RunAll(grid.Scenarios()[:10], Options{Workers: 2, Grid: "small"})
	var txt bytes.Buffer
	rep.WriteText(&txt)
	if !strings.Contains(txt.String(), "grid small") || !strings.Contains(txt.String(), "rbroadcast") {
		t.Fatalf("text report missing content:\n%s", txt.String())
	}
	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"scenarios": 10`) {
		t.Fatalf("json report missing scenario count:\n%.400s", js.String())
	}
}
