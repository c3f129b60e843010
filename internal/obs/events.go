package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Field is one structured key/value attached to a flight-recorder
// event. Keys are part of the event taxonomy and must be snake_case
// (internal/service TestEmittedNamesFollowGrammar checks every key the
// service emits against the taxonomy); values are free-form — digests,
// counts, durations.
type Field struct {
	Key, Value string
}

// F builds a Field; it exists to keep Record call sites one line.
func F(key, value string) Field { return Field{Key: key, Value: value} }

// Event is one flight-recorder entry: a monotonic sequence number (the
// dump sort key), a wall-clock stamp, a snake_case name from the
// event taxonomy, and the structured fields. Fields marshal as a JSON
// object, which encoding/json renders in sorted key order — so two
// dumps of the same recorder state are byte-identical.
type Event struct {
	Seq    uint64            `json:"seq"`
	TimeNS int64             `json:"t_ns"` // unix nanoseconds at Record time
	Name   string            `json:"name"`
	Fields map[string]string `json:"fields,omitempty"`
}

// eventSlot is one ring cell. The per-slot mutex is only ever
// contended when a wrap-around Record races a dump over the same cell,
// so the steady-state Record cost is one atomic add plus one
// uncontended lock/unlock — no global lock, no allocation beyond the
// event's own fields.
type eventSlot struct {
	mu  sync.Mutex
	ev  Event
	set bool
}

// Recorder is the flight recorder: a fixed-size ring of the most
// recent structured events, cheap enough to leave on in production and
// bounded so an incident dump is always a screenful, not a log file.
// A nil *Recorder is valid and records nothing, so instrumented
// packages hold a pointer and pay one nil check when disabled.
type Recorder struct {
	seq   atomic.Uint64
	mask  uint64
	slots []eventSlot
}

// NewRecorder returns a recorder keeping the last size events (rounded
// up to a power of two, minimum 64).
func NewRecorder(size int) *Recorder {
	n := 64
	for n < size {
		n <<= 1
	}
	return &Recorder{mask: uint64(n - 1), slots: make([]eventSlot, n)}
}

// Record appends one event, overwriting the oldest once the ring is
// full. Safe for concurrent use; no-op on a nil recorder.
func (r *Recorder) Record(name string, fields ...Field) {
	if r == nil {
		return
	}
	var fm map[string]string
	if len(fields) > 0 {
		fm = make(map[string]string, len(fields))
		for _, f := range fields {
			fm[f.Key] = f.Value
		}
	}
	i := r.seq.Add(1) - 1
	s := &r.slots[i&r.mask]
	s.mu.Lock()
	s.ev = Event{Seq: i, TimeNS: time.Now().UnixNano(), Name: name, Fields: fm}
	s.set = true
	s.mu.Unlock()
}

// Events returns the retained events sorted by sequence number — the
// deterministic dump order. Concurrent Records may land between slot
// reads; each returned event is internally consistent (copied under
// its slot lock) and the sort restores global order.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		if s.set {
			out = append(out, s.ev)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// WriteNDJSON dumps the retained events one JSON object per line in
// sequence order — the GET /debug/events body and the on-panic stderr
// dump share this form.
func (r *Recorder) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range r.Events() {
		if err := enc.Encode(&ev); err != nil {
			return err
		}
	}
	return nil
}
