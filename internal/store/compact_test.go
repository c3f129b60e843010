package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"idonly/internal/engine"
)

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

// recBytes reads a record's on-log footprint from the live index.
func recBytes(t *testing.T, st *Store, digest string) int64 {
	t.Helper()
	st.imu.RLock()
	defer st.imu.RUnlock()
	raw, _ := parseDigest(digest)
	ent, ok := st.index[indexKey(raw[:])]
	if !ok {
		t.Fatalf("record %s not indexed", digest[:12])
	}
	return int64(headerLen + ent.n + 4)
}

func TestCompactPureRewrite(t *testing.T) {
	dir := t.TempDir()
	results := testResults(t)
	st := openT(t, dir)
	if err := st.PutBatch(results[:8]); err != nil {
		t.Fatal(err)
	}
	before := st.Stats().LogBytes
	cs, err := st.Compact(0)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Kept != 8 || cs.Evicted != 0 {
		t.Fatalf("Compact(0) = %+v, want kept=8 evicted=0", cs)
	}
	if cs.BytesAfter != before || cs.ReclaimedBytes != 0 {
		// The log was already dense — a pure rewrite reclaims nothing.
		t.Fatalf("pure rewrite changed size: %+v (before %d)", cs, before)
	}
	// The store must remain fully usable after the fd swap: appends land
	// in the new log, reads come off the new handle.
	if err := st.Put(results[8]); err != nil {
		t.Fatal(err)
	}
	for _, want := range results {
		got, ok, err := st.Get(want.Scenario.Digest())
		if err != nil || !ok {
			t.Fatalf("Get after compact: ok=%v err=%v", ok, err)
		}
		canonEq(t, want, got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openT(t, dir)
	if st2.Len() != len(results) {
		t.Fatalf("reopen after compact: Len = %d, want %d", st2.Len(), len(results))
	}
	if st2.Stats().Truncated != 0 {
		t.Fatalf("reopen truncated %d bytes from a compacted log", st2.Stats().Truncated)
	}
}

func TestCompactEvictsLeastRecentlyGet(t *testing.T) {
	dir := t.TempDir()
	results := testResults(t)
	st := openT(t, dir)
	if err := st.PutBatch(results); err != nil {
		t.Fatal(err)
	}
	// Touch the last four so they are the most recently used; size the
	// target to fit exactly those four.
	target := int64(len(magic))
	for _, res := range results[5:] {
		d := res.Scenario.Digest()
		if _, ok, err := st.Get(d); err != nil || !ok {
			t.Fatalf("warm Get: ok=%v err=%v", ok, err)
		}
		target += recBytes(t, st, d)
	}
	cs, err := st.Compact(target)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Kept != 4 || cs.Evicted != 5 {
		t.Fatalf("Compact(%d) = %+v, want kept=4 evicted=5", target, cs)
	}
	if cs.BytesAfter != target || cs.ReclaimedBytes != cs.BytesBefore-target {
		t.Fatalf("Compact accounting off: %+v (target %d)", cs, target)
	}
	for _, res := range results[:5] {
		if _, ok, err := st.Get(res.Scenario.Digest()); ok || err != nil {
			t.Fatalf("evicted record still served: ok=%v err=%v", ok, err)
		}
	}
	for _, want := range results[5:] {
		got, ok, err := st.Get(want.Scenario.Digest())
		if err != nil || !ok {
			t.Fatalf("survivor Get: ok=%v err=%v", ok, err)
		}
		canonEq(t, want, got)
	}
	stats := st.Stats()
	if stats.Compactions != 1 || stats.Evicted != 5 || stats.ReclaimedBytes != cs.ReclaimedBytes {
		t.Fatalf("store counters after compact: %+v", stats)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openT(t, dir)
	if st2.Len() != 4 {
		t.Fatalf("reopen after eviction: Len = %d, want 4", st2.Len())
	}
	for _, want := range results[5:] {
		got, ok, err := st2.Get(want.Scenario.Digest())
		if err != nil || !ok {
			t.Fatalf("reopened survivor Get: ok=%v err=%v", ok, err)
		}
		canonEq(t, want, got)
	}
}

func TestMaxBytesWatermarkCompacts(t *testing.T) {
	results := testResults(t)
	// Size the bound off a reference store holding everything.
	ref := openT(t, t.TempDir())
	if err := ref.PutBatch(results); err != nil {
		t.Fatal(err)
	}
	maxBytes := ref.Stats().LogBytes / 2

	dir := t.TempDir()
	st, err := Open(dir, WithMaxBytes(maxBytes))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for _, res := range results {
		if err := st.Put(res); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.Compactions == 0 {
		t.Fatalf("no compaction at a %d-byte watermark: %+v", maxBytes, stats)
	}
	if stats.LogBytes > maxBytes {
		t.Fatalf("log %d bytes exceeds the %d-byte bound after puts", stats.LogBytes, maxBytes)
	}
	// The most recent put carries the freshest access clock and must
	// survive every eviction pass.
	last := results[len(results)-1]
	got, ok, err := st.Get(last.Scenario.Digest())
	if err != nil || !ok {
		t.Fatalf("last put evicted: ok=%v err=%v", ok, err)
	}
	canonEq(t, last, got)
}

func TestStaleCompactionTempRemoved(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, tmpName)
	if err := os.WriteFile(tmp, []byte("half-built replacement"), 0o644); err != nil {
		t.Fatal(err)
	}
	st := openT(t, dir)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale %s survived Open (err=%v)", tmpName, err)
	}
	if err := st.Put(testResults(t)[0]); err != nil {
		t.Fatal(err)
	}
}
