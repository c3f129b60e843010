package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"idonly/internal/obs"
)

// RunList is the GET /v1/runs payload: live runs first, then the
// bounded ring of completed ones, each newest-first.
type RunList struct {
	Active    []obs.RunSnapshot `json:"active"`
	Completed []obs.RunSnapshot `json:"completed"`
}

func (s *Service) handleRuns(w http.ResponseWriter, r *http.Request) {
	active, completed := s.runs.Snapshots()
	if active == nil {
		active = []obs.RunSnapshot{}
	}
	if completed == nil {
		completed = []obs.RunSnapshot{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(&RunList{Active: active, Completed: completed})
}

func (s *Service) handleRun(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.runs.Get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no run %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(&snap)
}

// handleRunWatch streams NDJSON progress snapshots for one run: a line
// immediately, another each time the done-count advances (polled every
// ?interval_ms, default 100, floor 10), and a final line when the run
// completes. Done-counts are monotonically non-decreasing across the
// stream because the underlying counters only ever increment.
func (s *Service) handleRunWatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := s.runs.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, "no run %q", id)
		return
	}
	interval := 100 * time.Millisecond
	if v := r.URL.Query().Get("interval_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms <= 0 {
			httpError(w, http.StatusBadRequest, "bad interval_ms %q", v)
			return
		}
		if ms < 10 {
			ms = 10
		}
		interval = time.Duration(ms) * time.Millisecond
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	last := int64(-1)
	for {
		if snap.Done != last || snap.State == obs.RunDone {
			if err := enc.Encode(&snap); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			last = snap.Done
		}
		if snap.State == obs.RunDone {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(interval):
		}
		if snap, ok = s.runs.Get(id); !ok {
			return // evicted from the completed ring mid-watch
		}
	}
}

func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	s.events.WriteNDJSON(w)
}

// watchdog polls the run's shard table until stop closes, reporting
// every shard that holds one scenario past the configured deadline:
// a watchdog_slow_scenario event carrying the offending ScenarioDigest
// plus a full goroutine dump to Config.WatchdogDump, once per (shard,
// scenario) — a stuck sweep produces one actionable record, not a
// dump per tick.
func (s *Service) watchdog(run *obs.RunRecord, stop <-chan struct{}) {
	tick := s.cfg.ScenarioDeadline / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			for _, sh := range run.SlowShards(s.cfg.ScenarioDeadline) {
				s.watchdogHits.Inc()
				s.events.Record("watchdog_slow_scenario",
					obs.F("run", run.ID()),
					obs.F("digest", sh.Digest),
					obs.F("scenario", sh.Scenario),
					obs.F("worker", strconv.Itoa(sh.Worker)),
					obs.F("busy_ns", strconv.FormatInt(sh.BusyNS, 10)))
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				fmt.Fprintf(s.cfg.WatchdogDump,
					"idonly serve: watchdog: run %s worker %d busy %s on scenario %s (digest %s); goroutines:\n",
					run.ID(), sh.Worker, time.Duration(sh.BusyNS), sh.Scenario, sh.Digest)
				s.cfg.WatchdogDump.Write(buf[:n])
			}
		}
	}
}
