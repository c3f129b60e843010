package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},     // overlaps a: 10..50 is covered once
		{ID: 3, Parent: 0, Name: "late", Start: 90, End: 120}, // reaches past the parent: clipped to 90..100
		{ID: 4, Parent: 2, Name: "leaf", Start: 25, End: 45},
		{ID: 5, Parent: -1, Name: "other", Start: 200, End: 260},
	}
	want := []int64{100 - 40 - 10, 20, 30 - 20, 30, 20, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	var off *tracer
	off.end(off.begin("ignored", -1, 0), 1) // a nil tracer records nothing and must not panic
	off.record("ignored", -1, 0, time.Now(), 5)

	tr := newTracer()
	root := tr.begin("root", -1, 7)
	child := tr.begin("child", root, 7)
	tr.end(child, 288)
	tr.record("measured", root, 7, tr.t0.Add(time.Microsecond), 1000)
	tr.end(root, 1)
	if len(tr.spans) != 3 || tr.spans[child].Calls != 288 || tr.spans[child].Parent != root || tr.spans[2].dur() != 1000 {
		t.Fatalf("unexpected spans: %+v", tr.spans)
	}
	if got := byName(tr.spans, "measured"); len(got) != 1 || got[0] != 1000 {
		t.Errorf("byName = %v, want [1000]", got)
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, tr.spans); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Name string `json:"name"`
		Op   int    `json:"op"`
		Self *int64 `json:"self_ns"`
	}
	if err := json.Unmarshal(b, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0].Name != "root" || rows[0].Op != 7 || rows[0].Self == nil {
		t.Errorf("trace file rows = %+v", rows)
	}
}
