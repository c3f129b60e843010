package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"idonly/internal/engine"
)

// run dispatches args in-process and returns the exit code and both
// output streams.
func run(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := dispatch(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestDispatch: no subcommand, or an unknown one, is a usage error
// that lists every subcommand.
func TestDispatch(t *testing.T) {
	for _, args := range [][]string{nil, {"bogus"}, {"-grid", "small"}} {
		code, _, stderr := run(t, args...)
		if code != 2 {
			t.Errorf("idonly %v: exit %d, want 2", args, code)
		}
		for _, c := range commands {
			if !strings.Contains(stderr, "  "+c.name+" ") {
				t.Errorf("idonly %v: usage does not list %q:\n%s", args, c.name, stderr)
			}
		}
	}
}

// TestSimEveryProtocol: sim runs each engine protocol as one scenario
// and prints its digest, which is the content address of the grid cell
// with the same protocol, adversary, size and seed.
func TestSimEveryProtocol(t *testing.T) {
	for _, p := range append(engine.Protocols(), engine.ProtoRing) {
		code, stdout, stderr := run(t, "sim", "-protocol", p, "-n", "4", "-f", "1", "-log-level", "error")
		if code != 0 {
			t.Errorf("sim -protocol %s: exit %d\n%s", p, code, stderr)
			continue
		}
		cell := engine.Grid{Protocols: []string{p}, Adversaries: []string{engine.AdvSilent}, Sizes: []int{4}, Seeds: []uint64{1}}
		want := cell.Scenarios()[0].Digest()
		if !strings.Contains(stdout, "digest   "+want+"\n") {
			t.Errorf("sim -protocol %s: digest %s missing from\n%s", p, want, stdout)
		}
	}
}

// wantSimExit runs sim with args and checks that it exits 0 when ok,
// and 2 (a usage error, before any run) when not.
func wantSimExit(t *testing.T, ok bool, args ...string) {
	t.Helper()
	want := 2
	if ok {
		want = 0
	}
	if code, _, _ := run(t, append([]string{"sim", "-log-level", "error"}, args...)...); code != want {
		t.Errorf("sim %v: exit %d, want %d", args, code, want)
	}
}

// TestCheckSize: the sizes that used to panic deep inside a run (a
// negative slice bound, a negative id count, a division by an empty
// correct set) are rejected up front, and so is n ≤ 3f: running
// outside the bound is E2's job.
func TestCheckSize(t *testing.T) {
	cases := []struct {
		n, f int
		ok   bool
	}{
		{10, 3, true},
		{1, 0, true},
		{4, 3, false}, // n ≤ 3f
		{3, 1, false}, // n ≤ 3f
		{3, 5, false},
		{-1, 0, false},
		{0, 0, false},
		{4, 4, false},
		{7, -1, false},
	}
	for _, tc := range cases {
		wantSimExit(t, tc.ok, "-n", fmt.Sprint(tc.n), "-f", fmt.Sprint(tc.f))
	}
}

// TestCheckNames: protocol and adversary names are the scenario
// engine's, whatever -f is; the old direct path's own adversary names
// are usage errors.
func TestCheckNames(t *testing.T) {
	cases := []struct {
		protocol, adv string
		ok            bool
	}{
		{"consensus", "split", true},
		{"consensus", "chaos", true},
		{"ring", "silent", true},
		{"dynamic", "replay", true},
		{"rotor", "hidden", false},     // a direct-path name
		{"dynamic", "stubborn", false}, // a direct-path name
		{"consensus", "bogus", false},
		{"bogus", "silent", false},
		{"ring", "split", false}, // ring has no value to split
	}
	for _, tc := range cases {
		wantSimExit(t, tc.ok, "-protocol", tc.protocol, "-adversary", tc.adv)
	}
	wantSimExit(t, false, "-adversary", "bogus", "-f", "0") // f = 0 never builds the adversary
}

// TestSimUsageErrors: negative workload knobs, churn the protocol
// cannot take and the direct path's flags exit 2 before any run.
func TestSimUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-pairs", "-1"},
		{"-rounds", "-1"},
		{"-churn", "j1"}, // correct-node churn is dynamic-only
		{"-iters", "8"},  // a direct-path flag, gone with the direct path
	} {
		wantSimExit(t, false, args...)
	}
}

// TestFlagsBelongToOneMode: a flag of one mode is a usage error in the
// other, instead of being silently ignored.
func TestFlagsBelongToOneMode(t *testing.T) {
	for _, args := range [][]string{
		{"exp", "-json"},
		{"exp", "-grid", "small"},
		{"sweep", "-run", "E4"},
		{"sweep", "-grid", "bogus"},
		{"exp", "-run", "E99"},
	} {
		if code, _, _ := run(t, append(args, "-log-level", "error")...); code != 2 {
			t.Errorf("idonly %v: exit %d, want 2", args, code)
		}
	}
}

// TestSweepAndExp: sweep writes the engine's canonical bytes for the
// grid and, with an explicit -workers, checks them against a
// sequential baseline; exp prints the selected table.
func TestSweepAndExp(t *testing.T) {
	code, stdout, stderr := run(t, "sweep", "-grid", "small", "-churn", "none", "-workers", "2", "-canonical")
	if code != 0 {
		t.Fatalf("sweep: exit %d\n%s", code, stderr)
	}
	g, err := engine.PresetGrid("small")
	if err != nil {
		t.Fatal(err)
	}
	g.Churns = []engine.Churn{{}}
	want, err := engine.RunAll(g.Scenarios(), engine.Options{Grid: "small"}).CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Error("sweep -canonical differs from the engine's canonical bytes")
	}
	if !strings.Contains(stderr, "(reports byte-identical)") {
		t.Errorf("sweep -workers 2: no determinism line on stderr:\n%s", stderr)
	}

	code, stdout, stderr = run(t, "exp", "-run", "e1", "-log-level", "error")
	if code != 0 || !strings.HasPrefix(stdout, "E1 — ") || !strings.Contains(stdout, "[E1 completed in ") {
		t.Errorf("exp -run e1: exit %d\n%s%s", code, stdout, stderr)
	}
}

// TestServeDefaults: serve's flag defaults are the service
// configuration the benchmark pins for its server.
func TestServeDefaults(t *testing.T) {
	code, _, stderr := run(t, "serve", "-h")
	if code != 0 {
		t.Fatalf("serve -h: exit %d", code)
	}
	for _, want := range []string{
		"-max-inflight int\n", "(default 2)",
		"-max-scenarios int\n", "(default 20000)",
		"-max-n int\n", "(default 256)",
		"-scenario-deadline duration\n", "(default 30s)",
		"-run-history int\n", "(default 64)",
		"-event-buffer int\n", "(default 1024)",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("serve -h lacks %q:\n%s", want, stderr)
		}
	}
}

// TestServeUsageErrors: a -rate-rps that is not a finite number >= 0
// exits 2 before the store opens; NaN and +Inf would otherwise start a
// server whose token buckets refuse every sweep.
func TestServeUsageErrors(t *testing.T) {
	for _, rps := range []string{"NaN", "+Inf", "-1"} {
		code, _, stderr := run(t, "serve", "-addr", "127.0.0.1:0", "-store", t.TempDir(), "-rate-rps", rps, "-log-level", "error")
		if code != 2 || !strings.Contains(stderr, "-rate-rps") {
			t.Errorf("serve -rate-rps %s: exit %d, want 2\n%s", rps, code, stderr)
		}
	}
}

// TestTraceUsageErrors: the round dump rejects sizes it cannot slice,
// and -summarize rejects a non-positive -top.
func TestTraceUsageErrors(t *testing.T) {
	path := writeSpans(t, `{"span":{"digest":"abc"}}`)
	for _, args := range [][]string{
		{"-n", "2", "-f", "3"},
		{"-n", "0", "-f", "0"},
		{"-n", "4", "-f", "-1"},
		{"-summarize", path, "-top", "0"},
		{"-summarize", path, "-top", "-1"},
	} {
		if code, _, _ := run(t, append([]string{"trace", "-log-level", "error"}, args...)...); code != 2 {
			t.Errorf("trace %v: exit %d, want 2", args, code)
		}
	}
}

// TestTraceSummarizeShortDigest: a span line from the user's file may
// carry any digest; the summary prints it whatever its length.
func TestTraceSummarizeShortDigest(t *testing.T) {
	path := writeSpans(t,
		`{"span":{"digest":"abc","scenario":"s1","wall_ns":5}}`,
		`{"digest":"0123456789abcdef","scenario":"s2","wall_ns":9,"cached":true}`)
	code, stdout, stderr := run(t, "trace", "-summarize", path, "-top", "5")
	if code != 0 {
		t.Fatalf("trace -summarize: exit %d\n%s", code, stderr)
	}
	for _, want := range []string{"spans     2 (1 cached, 1 computed, 0 errors)", "slowest 2 scenarios:", "s1 (abc)", "s2 (0123456789ab) [cached]"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("summary lacks %q:\n%s", want, stdout)
		}
	}
}

// TestTraceRoundDump: the default mode prints the consensus run round
// by round and ends with every correct node's decision.
func TestTraceRoundDump(t *testing.T) {
	code, stdout, stderr := run(t, "trace", "-n", "4", "-f", "1")
	if code != 0 {
		t.Fatalf("trace: exit %d\n%s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "--- round 1 (init 1) ---\n") || strings.Count(stdout, " decided ") != 3 {
		t.Errorf("round dump:\n%s", stdout)
	}
}

func writeSpans(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.ndjson")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
