package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary. Spans of one
// operation share Op; Parent is the ID of the span that caused this
// one (-1 for a root). Calls is how many calls into the layer the
// interval covers (288 Scenario.Digest calls are one span, not 288),
// so per-call time is the duration over Calls. Times are nanoseconds
// since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Calls  int    `json:"calls"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the same workload code runs traced and untraced.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID for end and for children.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Calls: 1, Start: now})
	return id
}

// end closes the span, recording how many layer calls it covered.
func (t *tracer) end(id, calls int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.spans[id].Calls = calls
	t.mu.Unlock()
}

// record stores an interval measured elsewhere: the engine's own
// Hooks.Span sink and the server fixture report durations after the
// fact.
func (t *tracer) record(name string, parent, op int, start time.Time, durNS int64) {
	if t == nil {
		return
	}
	from := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Calls: 1, Start: from, End: from + durNS})
	t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the
// part of its interval that its child spans cover. Overlapping
// children (two workers running at once) are counted once, and a child
// reaching outside its parent is clipped to it.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// byName collects the durations of every span with the given name.
func byName(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// writeTrace writes the spans, each with its self time, as one JSON
// document.
func writeTrace(path string, spans []span) error {
	type row struct {
		span
		Self int64 `json:"self_ns"`
	}
	self := selfTimes(spans)
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{span: s, Self: self[i]}
	}
	b, err := json.Marshal(rows)
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}
