package store

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"idonly/internal/engine"
)

// encodingJSONLog builds a results.log the way the store wrote it with
// encoding/json: magic, then per payload the length, the raw digest, the
// payload and the CRC-32C over digest ∥ payload.
func encodingJSONLog(t *testing.T, digests []string, payloads [][]byte) []byte {
	t.Helper()
	log := []byte(magic)
	for i, p := range payloads {
		key, err := hex.DecodeString(digests[i])
		if err != nil {
			t.Fatal(err)
		}
		log = binary.BigEndian.AppendUint32(log, uint32(len(p)))
		rec := len(log)
		log = append(log, key...)
		log = append(log, p...)
		log = binary.BigEndian.AppendUint32(log, crc32.Checksum(log[rec:], crcTable))
	}
	return log
}

// TestStoreReadsEncodingJSONRecords: a log of json.Marshal payloads —
// with the measurement fields set, an error string encoding/json
// escapes, and a key no Result field has — reopens, and every Get
// returns what json.Unmarshal makes of the same payload.
func TestStoreReadsEncodingJSONRecords(t *testing.T) {
	results := append([]engine.Result(nil), testResults(t)...)
	results[0].WallNS, results[0].InboxGrows = 123456, 789
	results[1].Err = `invariant "broken" at <round 3> & later`
	digests := make([]string, len(results))
	payloads := make([][]byte, len(results))
	for i := range results {
		digests[i] = results[i].Scenario.Digest()
		p, err := json.Marshal(&results[i])
		if err != nil {
			t.Fatal(err)
		}
		payloads[i] = p
	}
	payloads[2] = append(payloads[2][:len(payloads[2])-1], `,"written_by":{"version":2,"tags":["x",null,1.5]}}`...)

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), encodingJSONLog(t, digests, payloads), 0o644); err != nil {
		t.Fatal(err)
	}
	st := openT(t, dir)
	if st.Len() != len(results) {
		t.Fatalf("reopened store indexes %d records, want %d", st.Len(), len(results))
	}
	for i, d := range digests {
		got, ok, err := st.Get(d)
		if err != nil || !ok {
			t.Fatalf("Get(%s): ok=%v err=%v", d[:12], ok, err)
		}
		var want engine.Result
		if err := json.Unmarshal(payloads[i], &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d: Get = %+v\njson.Unmarshal = %+v", i, got, want)
		}
	}
}

// TestStoreWritesEncodingJSONRecords: PutBatch writes the log byte for
// byte as encoding/json did — every payload is json.Marshal of its
// result, so the CRCs, the log size and bytes per result are unchanged
// — and json.Unmarshal reads each payload back.
func TestStoreWritesEncodingJSONRecords(t *testing.T) {
	results := testResults(t)
	dir := t.TempDir()
	st := openT(t, dir)
	if err := st.PutBatch(results); err != nil {
		t.Fatal(err)
	}
	digests := make([]string, len(results))
	payloads := make([][]byte, len(results))
	for i := range results {
		digests[i] = results[i].Scenario.Digest()
		p, err := json.Marshal(&results[i])
		if err != nil {
			t.Fatal(err)
		}
		payloads[i] = p
	}
	want := encodingJSONLog(t, digests, payloads)
	got, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the log (%d bytes) differs from the encoding/json log (%d bytes)", len(got), len(want))
	}
	if s := st.Stats(); s.LogBytes != int64(len(want)) || s.Records != len(results) {
		t.Fatalf("stats: %d log bytes over %d records, want %d over %d", s.LogBytes, s.Records, len(want), len(results))
	}
	for i, p := range payloads {
		var back engine.Result
		if err := json.Unmarshal(p, &back); err != nil || !reflect.DeepEqual(back, results[i]) {
			t.Fatalf("record %d does not decode under json.Unmarshal (err %v)", i, err)
		}
	}
}

// TestIndexKeySharedByTwoDigests: the index keeps eight bytes of each
// digest, so two digests can share an entry. A lookup checks the full
// digest stored in the log, so the shadowed one reads as a miss — never
// as the other's result — and storing it again takes the entry back.
func TestIndexKeySharedByTwoDigests(t *testing.T) {
	results := testResults(t)
	a, b := results[0], results[1]
	da := a.Scenario.Digest()
	rawA, _ := parseDigest(da)
	rawB := rawA
	rawB[keySize-1] ^= 0xff // same index key, different digest
	db := hex.EncodeToString(rawB[:])
	pa, err := json.Marshal(&a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := json.Marshal(&b)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logName), encodingJSONLog(t, []string{da, db}, [][]byte{pa, pb}), 0o644); err != nil {
		t.Fatal(err)
	}
	st := openT(t, dir)

	if got, ok, err := st.Get(da); err != nil || ok {
		t.Fatalf("Get of the shadowed digest = %s, ok=%v, err=%v; want a miss", got.Scenario.Name, ok, err)
	}
	if st.Has(da) || !st.Has(db) {
		t.Fatalf("Has(shadowed) = %v, Has(indexed) = %v", st.Has(da), st.Has(db))
	}
	if got, ok, err := st.Get(db); err != nil || !ok || got.Scenario.Name != b.Scenario.Name {
		t.Fatalf("Get of the indexed digest = %s, ok=%v, err=%v", got.Scenario.Name, ok, err)
	}
	if err := st.PutBatch([]engine.Result{a}); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := st.Get(da); err != nil || !ok || !reflect.DeepEqual(got, a) {
		t.Fatalf("Get after re-storing = %s, ok=%v, err=%v", got.Scenario.Name, ok, err)
	}
}
