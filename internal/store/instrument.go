package store

import (
	"strconv"

	"idonly/internal/obs"
)

// instruments is the store's latency metric set; the counters and
// gauges are callback series over the atomics the store already keeps,
// so only the two histograms add new state.
type instruments struct {
	getLat    *obs.Histogram
	appendLat *obs.Histogram
}

// Instrument registers the store's metric families on reg and starts
// recording Get/PutBatch latency. Before this call the store's hot
// paths pay one atomic nil-pointer load and nothing else; after it,
// one time.Now pair per operation. Registration is idempotent across
// stores only per registry — instrument each open store on its own
// registry, or once per process.
func (s *Store) Instrument(reg *obs.Registry) {
	reg.GaugeFunc("idonly_store_records",
		"Distinct result digests indexed.",
		func() float64 { return float64(s.Len()) })
	reg.GaugeFunc("idonly_store_log_bytes",
		"Result log size in bytes.",
		func() float64 { return float64(s.size.Load()) })
	reg.CounterFunc("idonly_store_gets_total",
		"Get calls since open.",
		func() float64 { return float64(s.gets.Load()) })
	reg.CounterFunc("idonly_store_get_hits_total",
		"Gets that found a record.",
		func() float64 { return float64(s.hits.Load()) })
	reg.CounterFunc("idonly_store_puts_total",
		"Records appended since open.",
		func() float64 { return float64(s.puts.Load()) })
	reg.CounterFunc("idonly_store_dup_puts_total",
		"Puts dropped because the digest was already present.",
		func() float64 { return float64(s.dups.Load()) })
	reg.CounterFunc("idonly_store_recovery_truncated_bytes_total",
		"Bytes cut from a corrupt log tail during open-time recovery.",
		func() float64 { return float64(s.truncated) })
	reg.CounterFunc("idonly_store_coalesced_total",
		"Scenario misses served by another caller's in-flight computation.",
		func() float64 { return float64(s.coalesced.Load()) })
	s.inst.Store(&instruments{
		getLat: reg.Histogram("idonly_store_get_seconds",
			"Get latency: index lookup through JSON decode.",
			obs.LatencyBuckets),
		appendLat: reg.Histogram("idonly_store_append_seconds",
			"PutBatch latency: encode, append, fsync, index publish.",
			obs.LatencyBuckets),
	})
}

// RecordEvents attaches a flight recorder: every batch append lands as
// a store_append event, and a store whose open-time recovery truncated
// a corrupt tail reports it once, immediately — the recorder attaches
// after Open, but the loss belongs in the incident record.
func (s *Store) RecordEvents(rec *obs.Recorder) {
	if rec == nil {
		return
	}
	s.events.Store(rec)
	if s.truncated > 0 {
		rec.Record("store_recover",
			obs.F("truncated_bytes", strconv.FormatInt(s.truncated, 10)))
	}
}
