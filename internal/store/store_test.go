package store

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"idonly/internal/engine"
)

// testResults runs a small batch of real scenarios once and hands out
// copies, so the store tests exercise genuine Result payloads (nested
// scenario, churn pointer, int64 counters) instead of synthetic ones.
var testResultsOnce = sync.OnceValue(func() []engine.Result {
	var specs []engine.Scenario
	for seed := uint64(1); seed <= 8; seed++ {
		specs = append(specs, engine.Scenario{
			Protocol: engine.ProtoConsensus, Adversary: engine.AdvSilent, N: 7, F: 2, Seed: seed,
		})
	}
	specs = append(specs, engine.Scenario{
		Protocol: engine.ProtoDynamic, Adversary: engine.AdvSplit, N: 10, F: 2, Seed: 3,
		Churn: &engine.Churn{Joins: 1, Leaves: 1, FaultyJoins: 1, FaultyLeaves: 1},
	})
	return engine.RunAll(specs, engine.Options{Workers: 2}).Results
})

func testResults(t *testing.T) []engine.Result {
	t.Helper()
	return testResultsOnce()
}

func openT(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// canonEq asserts two results reproduce the same canonical bytes.
func canonEq(t *testing.T, want, got engine.Result) {
	t.Helper()
	a := engine.Report{Scenarios: 1, Results: []engine.Result{want}}
	b := engine.Report{Scenarios: 1, Results: []engine.Result{got}}
	ab, err := a.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, bb) {
		t.Fatalf("result %s did not survive:\n%s\nvs\n%s", want.Scenario.Digest()[:12], ab, bb)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	st := openT(t, t.TempDir())
	results := testResults(t)
	if err := st.PutBatch(results); err != nil {
		t.Fatal(err)
	}
	if st.Len() != len(results) {
		t.Fatalf("Len = %d, want %d", st.Len(), len(results))
	}
	for _, want := range results {
		d := want.Scenario.Digest()
		if !st.Has(d) {
			t.Fatalf("Has(%s) = false after Put", d[:12])
		}
		got, ok, err := st.Get(d)
		if err != nil || !ok {
			t.Fatalf("Get(%s): ok=%v err=%v", d[:12], ok, err)
		}
		// The round-tripped result must reproduce the original's
		// canonical bytes — that is the whole cache contract.
		canonEq(t, want, got)
	}
	if _, ok, err := st.Get("0000000000000000000000000000000000000000000000000000000000000000"); ok || err != nil {
		t.Fatalf("Get(missing): ok=%v err=%v", ok, err)
	}
}

func TestPutDeduplicates(t *testing.T) {
	st := openT(t, t.TempDir())
	res := testResults(t)[0]
	if err := st.PutBatch([]engine.Result{res}); err != nil {
		t.Fatal(err)
	}
	sizeAfterFirst := st.Stats().LogBytes
	if err := st.PutBatch([]engine.Result{res}); err != nil {
		t.Fatal(err)
	}
	if err := st.PutBatch([]engine.Result{res, res}); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.LogBytes != sizeAfterFirst {
		t.Fatalf("duplicate Put grew the log: %d → %d", sizeAfterFirst, stats.LogBytes)
	}
	if stats.Records != 1 || stats.Puts != 1 || stats.DupPuts != 3 {
		t.Fatalf("stats after dup puts: %+v", stats)
	}
}

func TestReopenRestoresIndex(t *testing.T) {
	dir := t.TempDir()
	results := testResults(t)
	st := openT(t, dir)
	if err := st.PutBatch(results); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openT(t, dir)
	if st2.Len() != len(results) {
		t.Fatalf("reopened store has %d records, want %d", st2.Len(), len(results))
	}
	got, ok, err := st2.Get(results[0].Scenario.Digest())
	if err != nil || !ok {
		t.Fatalf("Get after reopen: ok=%v err=%v", ok, err)
	}
	if got.Scenario.Name != results[0].Scenario.Name {
		t.Fatalf("reopened record names %q, want %q", got.Scenario.Name, results[0].Scenario.Name)
	}
	if tr := st2.Stats().Truncated; tr != 0 {
		t.Fatalf("clean reopen reported %d truncated bytes", tr)
	}
}

// TestReopenAfterKillTruncatedTail is the crash-recovery contract: a
// log whose final record was torn mid-write (the kill-9 signature)
// reopens with every earlier record intact, the torn tail truncated,
// and accepts new appends.
func TestReopenAfterKillTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	results := testResults(t)
	st := openT(t, dir)
	if err := st.PutBatch(results); err != nil {
		t.Fatal(err)
	}
	st.Close()

	path := filepath.Join(dir, logName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record: cut 7 bytes out of its CRC/payload tail.
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	st2 := openT(t, dir)
	if st2.Len() != len(results)-1 {
		t.Fatalf("recovered %d records, want %d (last torn)", st2.Len(), len(results)-1)
	}
	if tr := st2.Stats().Truncated; tr <= 0 {
		t.Fatal("recovery did not report truncated bytes")
	}
	last := results[len(results)-1]
	if st2.Has(last.Scenario.Digest()) {
		t.Fatal("torn record still indexed")
	}
	for _, want := range results[:len(results)-1] {
		if _, ok, err := st2.Get(want.Scenario.Digest()); !ok || err != nil {
			t.Fatalf("pre-tear record %s lost: ok=%v err=%v", want.Scenario.Digest()[:12], ok, err)
		}
	}
	// The store must keep working past the recovered tail.
	if err := st2.PutBatch([]engine.Result{last}); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3 := openT(t, dir)
	if st3.Len() != len(results) {
		t.Fatalf("after re-put and reopen: %d records, want %d", st3.Len(), len(results))
	}
}

// TestReopenAfterMidLogCorruption: a flipped byte in the middle of the
// log recovers to the last record before the corruption (everything
// after is unaddressable without its predecessor's framing).
func TestReopenAfterMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	results := testResults(t)
	st := openT(t, dir)
	for _, r := range results {
		if err := st.PutBatch([]engine.Result{r}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	path := filepath.Join(dir, logName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openT(t, dir)
	if st2.Len() == 0 || st2.Len() >= len(results) {
		t.Fatalf("mid-log corruption recovered %d of %d records", st2.Len(), len(results))
	}
	if tr := st2.Stats().Truncated; tr <= 0 {
		t.Fatal("corruption not reported in Truncated")
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), []byte("definitely not a result log"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("Open accepted a file with the wrong magic")
	}
}

// TestConcurrentPutGet hammers the store from parallel writers and
// readers; run under -race this is the concurrent-reader-safety proof.
func TestConcurrentPutGet(t *testing.T) {
	st := openT(t, t.TempDir())
	results := testResults(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := range results {
				if err := st.PutBatch([]engine.Result{results[(i+w)%len(results)]}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4*len(results); i++ {
				d := results[(i+w)%len(results)].Scenario.Digest()
				if _, _, err := st.Get(d); err != nil {
					t.Error(err)
					return
				}
				st.Has(d)
				st.Len()
				st.Stats()
			}
		}(w)
	}
	wg.Wait()
	if st.Len() != len(results) {
		t.Fatalf("after concurrent puts: %d records, want %d", st.Len(), len(results))
	}
	for _, want := range results {
		if _, ok, err := st.Get(want.Scenario.Digest()); !ok || err != nil {
			t.Fatalf("record lost under concurrency: ok=%v err=%v", ok, err)
		}
	}
}
