package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"idonly/internal/engine"
	"idonly/internal/faults"
)

// openF opens a store with a failpoint set attached. No Close cleanup
// is registered: chaos tests abandon crashed stores by hand, and a
// surviving store is closed explicitly where the test needs it.
func openF(t *testing.T, dir string, fs *faults.Set) *Store {
	t.Helper()
	st, err := Open(dir, WithFaults(fs))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// wantCrash runs fn expecting an injected Crash at point, then abandons
// the store — the in-process equivalent of the process dying there. The
// disk is left exactly as the crash left it for the caller to recover.
func wantCrash(t *testing.T, st *Store, point string, fn func()) {
	t.Helper()
	defer func() {
		p := recover()
		c, ok := faults.AsCrash(p)
		if !ok {
			t.Fatalf("expected a Crash at %s, got panic %v", point, p)
		}
		if c.Point != point {
			t.Fatalf("crashed at %s, want %s", c.Point, point)
		}
		st.abandon()
	}()
	fn()
	t.Fatalf("no crash fired at %s", point)
}

// reopenAndVerify recovers the directory and asserts it holds exactly
// the results in want, each round-tripping byte-identically.
func reopenAndVerify(t *testing.T, dir string, want []engine.Result) *Store {
	t.Helper()
	st := openT(t, dir)
	if st.Len() != len(want) {
		t.Fatalf("recovered Len = %d, want %d", st.Len(), len(want))
	}
	for _, res := range want {
		got, ok, err := st.Get(res.Scenario.Digest())
		if err != nil || !ok {
			t.Fatalf("recovered Get(%s): ok=%v err=%v", res.Scenario.Digest()[:12], ok, err)
		}
		canonEq(t, res, got)
	}
	return st
}

func TestAppendTornWrite(t *testing.T) {
	dir := t.TempDir()
	results := testResults(t)
	// log_write hits: 0 = magic at open, 1 = first batch, 2 = second
	// batch — which lands half its bytes and crashes.
	fs := faults.New().Add(faults.Rule{Point: "log_write", Action: faults.ActTorn, After: 2})
	st := openF(t, dir, fs)
	if err := st.PutBatch(results[:5]); err != nil {
		t.Fatal(err)
	}
	wantCrash(t, st, "log_write", func() { st.PutBatch(results[5:]) })
	// Half the batch's bytes landed: recovery keeps whatever complete
	// records that prefix holds and truncates the torn remainder — the
	// first batch is untouchable, the second partially lost.
	st2 := openT(t, dir)
	if n := st2.Len(); n < 5 || n >= len(results) {
		t.Fatalf("recovered Len = %d, want in [5, %d)", n, len(results))
	}
	if st2.Stats().Truncated == 0 {
		t.Fatal("recovery reported no truncation after a torn append")
	}
	for _, res := range results[:5] {
		got, ok, err := st2.Get(res.Scenario.Digest())
		if err != nil || !ok {
			t.Fatalf("first-batch Get after recovery: ok=%v err=%v", ok, err)
		}
		canonEq(t, res, got)
	}
	// The store is fully writable again: the lost records re-land.
	if err := st2.PutBatch(results[5:]); err != nil {
		t.Fatal(err)
	}
	if st2.Len() != len(results) {
		t.Fatalf("Len after re-put = %d, want %d", st2.Len(), len(results))
	}
}

func TestGroupCommitSkipsCoveredBarrier(t *testing.T) {
	results := testResults(t)
	// Hold the first fsync open at the gate; a second put whose bytes
	// land during the hold is covered by that fsync and must skip its
	// own barrier entirely.
	fs := faults.New().Add(faults.Rule{
		Point: "store_sync_gate", Action: faults.ActSleep, Delay: 250 * time.Millisecond, Times: 1,
	})
	st := openF(t, t.TempDir(), fs)
	defer st.Close()
	baseline := fs.Hits("log_sync") // open-time magic fsync

	done := make(chan error, 1)
	go func() { done <- st.PutBatch(results[:1]) }()
	// The gate hit count flips the moment the first put wins syncMu and
	// enters its injected sleep.
	for fs.Hits("store_sync_gate") == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := st.PutBatch(results[1:2]); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := fs.Hits("log_sync") - baseline; got != 1 {
		t.Fatalf("two group-committed puts paid %d fsyncs, want 1", got)
	}
	for _, res := range results[:2] {
		if _, ok, err := st.Get(res.Scenario.Digest()); err != nil || !ok {
			t.Fatalf("Get after group commit: ok=%v err=%v", ok, err)
		}
	}
}

func TestAppendCrashBeforeBarrier(t *testing.T) {
	results := testResults(t)
	earlier, crashed := results[:5], results[5:]
	// The crash lands after the batch's WriteAt and before its fsync.
	// A process death leaves the written bytes in the page cache; a
	// power loss can drop any suffix of them, modelled by cutting the
	// unsynced tail in half.
	for _, powerLoss := range []bool{false, true} {
		dir := t.TempDir()
		st := openT(t, dir)
		if err := st.PutBatch(earlier); err != nil {
			t.Fatal(err)
		}
		durable := st.Stats().LogBytes
		st.Close()

		st = openF(t, dir, faults.New().CrashAt("store_sync_gate"))
		wantCrash(t, st, "store_sync_gate", func() { st.PutBatch(crashed) })
		if powerLoss {
			fi, err := os.Stat(filepath.Join(dir, logName))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(filepath.Join(dir, logName), durable+(fi.Size()-durable)/2); err != nil {
				t.Fatal(err)
			}
		}

		st2 := openT(t, dir)
		for _, res := range earlier {
			got, ok, err := st2.Get(res.Scenario.Digest())
			if err != nil || !ok {
				t.Fatalf("powerLoss=%v: earlier Get: ok=%v err=%v", powerLoss, ok, err)
			}
			canonEq(t, res, got)
		}
		// Each crashed record is either indexed whole or gone; a
		// process death loses none of them, a power loss some.
		kept := 0
		for _, res := range crashed {
			got, ok, err := st2.Get(res.Scenario.Digest())
			if err != nil {
				t.Fatalf("powerLoss=%v: crashed-batch Get: %v", powerLoss, err)
			}
			if ok {
				canonEq(t, res, got)
				kept++
			}
		}
		if want := len(crashed); !powerLoss && kept != want {
			t.Fatalf("process death kept %d of %d written records", kept, want)
		}
		if powerLoss && (kept == len(crashed) || st2.Stats().Truncated == 0) {
			t.Fatalf("power loss kept %d of %d records, truncated %d bytes", kept, len(crashed), st2.Stats().Truncated)
		}
		// No record the recovered index points at fails its CRC.
		for key, ent := range st2.index {
			body := make([]byte, keySize+ent.n+4)
			if _, err := st2.f.ReadAt(body, ent.off-keySize); err != nil {
				t.Fatal(err)
			}
			if crc32.Checksum(body[:keySize+ent.n], crcTable) != binary.BigEndian.Uint32(body[keySize+ent.n:]) {
				t.Fatalf("powerLoss=%v: indexed record %016x fails its CRC", powerLoss, key)
			}
		}
		// Re-putting the crashed batch heals the store, durably.
		if err := st2.PutBatch(crashed); err != nil {
			t.Fatal(err)
		}
		st2.Close()
		reopenAndVerify(t, dir, results)
	}
}
