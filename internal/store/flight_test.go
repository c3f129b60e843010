package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"idonly/internal/engine"
	"idonly/internal/faults"
	"idonly/internal/obs"
	"idonly/internal/simtest"
)

// logAppends scans a store directory's log and returns how many records
// it holds per digest. The index cannot tell: it keeps one entry per
// digest however often the digest was appended.
func logAppends(t *testing.T, dir string) map[string]int {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int)
	for off := len(magic); off < len(b); {
		n := int(binary.BigEndian.Uint32(b[off:]))
		out[hex.EncodeToString(b[off+4:off+headerLen])]++
		off += headerLen + n + 4
	}
	return out
}

// TestCachedRunAllLateClaimAfterLeaderFinished replays, by failpoint, the
// schedule that used to compute and append every scenario twice: caller
// B misses the store and is held before it claims its flights; caller A
// runs its whole sweep — compute, fulfil, persist, deregister — and only
// then B claims. B wins every lead, and must find A's records by probing
// the store again instead of computing them a second time.
func TestCachedRunAllLateClaimAfterLeaderFinished(t *testing.T) {
	var specs []engine.Scenario
	for seed := uint64(1); seed <= 8; seed++ {
		specs = append(specs, engine.Scenario{
			Protocol: engine.ProtoConsensus, Adversary: engine.AdvSilent, N: 7, F: 2, Seed: seed,
		})
	}
	hold := make(chan struct{})
	fs := faults.New().Add(faults.Rule{Point: "cached_claim", Action: faults.ActSleep, Until: hold, Times: 1})
	dir := t.TempDir()
	st := openF(t, dir, fs)
	defer st.Close()
	eobs := engine.NewObs(obs.NewRegistry())
	opts := engine.Options{Workers: 2, Hooks: engine.Hooks{Obs: eobs}}

	type outcome struct {
		rep   *engine.Report
		stats RunStats
		err   error
	}
	late := make(chan outcome, 1)
	go func() {
		rep, stats, err := CachedRunAll(st, specs, opts)
		late <- outcome{rep, stats, err}
	}()
	for fs.Hits("cached_claim") == 0 { // B has missed every Get and is parked
		time.Sleep(time.Millisecond)
	}
	repA, statsA, err := CachedRunAll(st, specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	close(hold)
	b := <-late
	if b.err != nil {
		t.Fatal(b.err)
	}

	if statsA.Misses != len(specs) || statsA.Hits != 0 {
		t.Fatalf("leader stats = %+v, want %d computed misses", statsA, len(specs))
	}
	if b.stats.Hits != len(specs) || b.stats.Misses != 0 || b.stats.Coalesced != 0 {
		t.Fatalf("late claimer stats = %+v, want %d hits found by the second probe", b.stats, len(specs))
	}
	if got := eobs.Computed.Value(); got != int64(len(specs)) {
		t.Fatalf("computed %d scenarios, want exactly %d", got, len(specs))
	}
	canonA, errA := repA.CanonicalBytes()
	canonB, errB := b.rep.CanonicalBytes()
	if errA != nil || errB != nil || !bytes.Equal(canonA, canonB) {
		t.Fatalf("canonical reports differ (errs %v, %v)", errA, errB)
	}
	if s := st.Stats(); s.Puts != int64(len(specs)) || s.DupPuts != 0 {
		t.Fatalf("store stats = %+v, want %d puts and no duplicate put", s, len(specs))
	}
	appends := logAppends(t, dir)
	for _, spec := range specs {
		if n := appends[spec.Digest()]; n != 1 {
			t.Fatalf("digest %s appended %d times, want once", spec.Digest()[:12], n)
		}
	}
	if len(st.flights) != 0 {
		t.Fatalf("%d flights still registered after both sweeps returned", len(st.flights))
	}
}

// TestCachedRunAllCoalescesConcurrentMisses races many identical cold
// sweeps against one shared store and asserts the singleflight contract:
// every scenario is computed by exactly one caller, the misses balance
// against the coalesced, and the store persists each record once. That
// every caller gets the same report is the sweep matrix's four-callers
// column (engine's TestSweepStrategies).
func TestCachedRunAllCoalescesConcurrentMisses(t *testing.T) {
	var specs []engine.Scenario
	for seed := uint64(1); seed <= 8; seed++ {
		specs = append(specs, engine.Scenario{
			Protocol: engine.ProtoConsensus, Adversary: engine.AdvSilent, N: 7, F: 2, Seed: seed,
		})
	}
	dir := t.TempDir()
	st := openT(t, dir)
	eobs := engine.NewObs(obs.NewRegistry())

	const callers = 8
	statsBy, errs := make([]RunStats, callers), make([]error, callers)
	simtest.Concurrently(callers, func(c int) {
		_, statsBy[c], errs[c] = CachedRunAll(st, specs, engine.Options{Workers: 2, Hooks: engine.Hooks{Obs: eobs}})
	})
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if got := eobs.Computed.Value(); got != int64(len(specs)) {
		t.Fatalf("%d concurrent identical sweeps computed %d scenarios, want exactly %d",
			callers, got, len(specs))
	}
	// Every miss is either led (computed once) or coalesced onto a
	// flight; with no failures the ledger balances exactly.
	var misses, coalesced int
	for _, s := range statsBy {
		misses += s.Misses
		coalesced += s.Coalesced
	}
	if misses != len(specs)+coalesced {
		t.Fatalf("miss ledger off: %d misses, %d coalesced, %d computed", misses, coalesced, len(specs))
	}
	stStats := st.Stats()
	if stStats.Puts != int64(len(specs)) {
		t.Fatalf("store persisted %d records for %d scenarios", stStats.Puts, len(specs))
	}
	if stStats.Coalesced != int64(coalesced) {
		t.Fatalf("store counted %d coalesced, callers reported %d", stStats.Coalesced, coalesced)
	}
	for digest, n := range logAppends(t, dir) {
		if n != 1 {
			t.Fatalf("digest %s appended %d times, want once", digest[:12], n)
		}
	}
}

// TestFlightAbandonFallsBack parks a caller on a flight the leader then
// abandons, and asserts the caller recovers by computing locally — a
// flight is a fast path, never a correctness dependency.
func TestFlightAbandonFallsBack(t *testing.T) {
	spec := engine.Scenario{
		Protocol: engine.ProtoConsensus, Adversary: engine.AdvSilent, N: 7, F: 2, Seed: 1,
	}
	digest := spec.Digest()
	st := openT(t, t.TempDir())

	f, leader := st.beginFlight(digest)
	if !leader {
		t.Fatal("first beginFlight was not the leader")
	}
	type outcome struct {
		rep   *engine.Report
		stats RunStats
		err   error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, stats, err := CachedRunAll(st, []engine.Scenario{spec}, engine.Options{Workers: 1})
		done <- outcome{rep, stats, err}
	}()
	// Give the caller time to park on the flight, then abandon it the
	// way a failed leader would. (If the caller arrives after the
	// abandonment it simply leads a fresh flight — same observable
	// outcome, which is the point.)
	time.Sleep(50 * time.Millisecond)
	st.finishFlight(digest, f, engine.Result{}, false)

	out := <-done
	if out.err != nil {
		t.Fatal(out.err)
	}
	if out.stats.Misses != 1 || out.stats.Coalesced != 0 {
		t.Fatalf("abandoned flight stats = %+v, want one locally computed miss", out.stats)
	}
	want := engine.RunAll([]engine.Scenario{spec}, engine.Options{Workers: 1}).Results[0]
	canonEq(t, want, out.rep.Results[0])
	if !st.Has(digest) {
		t.Fatal("locally recomputed result was not persisted")
	}
}
