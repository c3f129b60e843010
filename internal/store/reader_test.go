package store

import (
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"idonly/internal/engine"
	"idonly/internal/faults"
)

// readerGrids are two small grids whose records the reader test stores
// interleaved, so that one grid's records lie in runs the other's break.
func readerGrids() (a, b []engine.Scenario) {
	g := engine.Grid{
		Protocols:   []string{engine.ProtoConsensus, engine.ProtoApprox},
		Adversaries: []string{engine.AdvSilent},
		Sizes:       []int{4, 7},
		Seeds:       []uint64{1, 2, 3},
	}
	a = g.Scenarios()
	g.Adversaries = []string{engine.AdvSplit}
	return a, g.Scenarios()
}

// lookupAll reads digests one Get at a time: the reference the batch
// reader must equal, results, ok flags and counters alike.
func lookupAll(t *testing.T, st *Store, digests []string) ([]engine.Result, []bool) {
	t.Helper()
	out := make([]engine.Result, len(digests))
	found := make([]bool, len(digests))
	for i, d := range digests {
		res, ok, err := st.Get(d)
		if err != nil {
			t.Fatalf("Get(%.12s): %v", d, err)
		}
		out[i], found[i] = res, ok
	}
	return out, found
}

// TestBatchReaderMatchesSingleReads: the one-pass reader behind
// CachedRunAll returns what a loop of single-digest lookups returns,
// and moves the store's counters alike, over a log where two grids'
// batches interleave, the last record was torn off and recovered
// away, one record is larger than a run's read bound, and the queries
// include a digest that shares a stored record's index key (it must
// miss, never return that record's result) and strings that are no
// digest at all.
func TestBatchReaderMatchesSingleReads(t *testing.T) {
	specsA, specsB := readerGrids()
	resA := engine.RunAll(specsA, engine.Options{Workers: 2}).Results
	resB := engine.RunAll(specsB, engine.Options{Workers: 2}).Results
	resB[4].Err = strings.Repeat("x", 2*maxPooledReadBuf) // a run of its own

	dir := t.TempDir()
	st := openT(t, dir)
	for i := 0; i < len(resA); i += 3 {
		if err := st.PutBatch(resA[i : i+3]); err != nil {
			t.Fatal(err)
		}
		if err := st.PutBatch(resB[i/3*2 : i/3*2+2]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.PutBatch(resB[len(resA)/3*2:]); err != nil {
		t.Fatal(err)
	}
	if err := st.PutBatch(resA[len(resA)-1:]); err != nil { // a duplicate: no record
		t.Fatal(err)
	}
	st.Close()
	// Tear the last record (grid B's final one) and recover.
	path := filepath.Join(dir, logName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-7); err != nil {
		t.Fatal(err)
	}
	st = openT(t, dir)
	if st.Stats().Truncated == 0 {
		t.Fatal("the torn tail was not truncated")
	}

	var digestsA, digestsB []string
	for _, s := range specsA {
		digestsA = append(digestsA, s.Digest())
	}
	for _, s := range specsB {
		digestsB = append(digestsB, s.Digest())
	}
	raw, _ := parseDigest(digestsA[1])
	raw[keySize-1] ^= 0xff // same index key as A[1], another digest
	shadow := hex.EncodeToString(raw[:])

	withShadow := slices.Clone(digestsA)
	withShadow[1] = shadow // inside a run: A[0], A[1]'s record, A[2]
	orders := map[string][]string{
		"grid A, then grid B": append(slices.Clone(digestsA), digestsB...),
		"log order":           nil,
		"reversed":            slices.Concat(digestsB, digestsA),
		"shadowed index key":  withShadow,
		"not digests":         {digestsA[0], "", "zz", strings.ToUpper(digestsA[1]), digestsA[2]},
	}
	for i := 0; i < len(digestsA); i += 3 {
		orders["log order"] = append(orders["log order"], digestsA[i:i+3]...)
		orders["log order"] = append(orders["log order"], digestsB[i/3*2:i/3*2+2]...)
	}
	orders["log order"] = append(orders["log order"], digestsB[len(digestsA)/3*2:]...)
	slices.Reverse(orders["reversed"])

	for name, digests := range orders {
		before := st.Stats()
		out := make([]engine.Result, len(digests))
		found := make([]bool, len(digests))
		if err := st.getAll(digests, nil, out, found, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		batch := st.Stats()
		wantOut, wantFound := lookupAll(t, st, digests)
		single := st.Stats()
		if !reflect.DeepEqual(found, wantFound) {
			t.Fatalf("%s: found %v, single lookups %v", name, found, wantFound)
		}
		if !reflect.DeepEqual(out, wantOut) {
			t.Fatalf("%s: results differ from single lookups", name)
		}
		if batch.Gets-before.Gets != single.Gets-batch.Gets || batch.Hits-before.Hits != single.Hits-batch.Hits {
			t.Fatalf("%s: batch moved gets/hits by %d/%d, single lookups by %d/%d", name,
				batch.Gets-before.Gets, batch.Hits-before.Hits, single.Gets-batch.Gets, single.Hits-batch.Hits)
		}
		for i, d := range digests {
			if found[i] && out[i].Scenario.Digest() != d {
				t.Fatalf("%s: %.12s was served the result of %.12s", name, d, out[i].Scenario.Digest())
			}
		}
	}
	if _, ok, _ := st.Get(shadow); ok {
		t.Fatal("the shadow digest was served a result")
	}
	if _, ok, _ := st.Get(digestsB[len(digestsB)-1]); ok {
		t.Fatal("the torn record was served")
	}
}

// TestCachedRunAllReadFaultMidSweep: a log read that fails after the
// sweep's first run was read fails the whole sweep; no partial report
// comes back.
func TestCachedRunAllReadFaultMidSweep(t *testing.T) {
	specsA, specsB := readerGrids()
	fs := faults.New()
	st := openF(t, t.TempDir(), fs)
	defer st.Close()
	for i := 0; i < len(specsA); i += 3 {
		if _, _, err := CachedRunAll(st, specsA[i:i+3], engine.Options{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := CachedRunAll(st, specsB[i:i+3], engine.Options{Workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	fs.Add(faults.Rule{Point: "log_read", Action: faults.ActError, After: fs.Hits("log_read") + 1, Times: 1})
	rep, _, err := CachedRunAll(st, specsA, engine.Options{Workers: 2})
	if !errors.Is(err, faults.ErrInjected) || rep != nil {
		t.Fatalf("CachedRunAll under a mid-sweep read fault = report %v, err %v; want no report and the injected error", rep != nil, err)
	}
	if _, stats, err := CachedRunAll(st, specsA, engine.Options{Workers: 2}); err != nil || stats.Hits != len(specsA) {
		t.Fatalf("after the fault: stats %+v, err %v; want every scenario a hit", stats, err)
	}
}
