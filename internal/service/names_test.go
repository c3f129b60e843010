package service

import (
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"idonly/internal/faults"
	"idonly/internal/store"
)

// eventTaxonomy is the flight recorder's closed event taxonomy: every
// name a Record site emits, with the field keys it may carry. DESIGN.md's
// flight-recorder paragraph lists the same names.
var eventTaxonomy = map[string][]string{
	"sweep_admit":            {"run", "scenarios"},
	"sweep_reject":           {"reason", "scenarios"},
	"sweep_done":             {"cache_hits", "coalesced", "computed", "elapsed_ns", "run"},
	"sweep_failed":           {"run"},
	"ratelimit_reject":       {"client"},
	"http_error":             {"code", "endpoint"},
	"http_panic":             {"endpoint"},
	"store_append":           {"bytes", "records"},
	"store_recover":          {"truncated_bytes"},
	"watchdog_slow_scenario": {"busy_ns", "digest", "run", "scenario", "worker"},
}

// runKinds is every kind a service mints in its run registry.
var runKinds = []string{"sweep"}

var (
	eventNameRE = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	fieldKeyRE  = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
)

// TestEmittedNamesFollowGrammar drives every event in the taxonomy — a
// cold and a warm sweep, a 400, an in-flight 429, a rate-limit 429 and
// a watchdog fire on one service; a recovered store, a
// failed sweep and a panicking one on a second service sharing its
// recorder and run registry — then checks what was emitted rather than
// what the source says: every /debug/events name is snake_case and in
// eventTaxonomy, every field key is snake_case and one its event may
// carry, and every /v1/runs kind is snake_case and in runKinds.
func TestEmittedNamesFollowGrammar(t *testing.T) {
	svc, _ := newTestService(t, Config{
		Workers: 1, MaxInFlight: 1,
		RateRPS: 1e-3, RateBurst: 1, // one sweep admission per client host
		ScenarioDeadline: time.Millisecond, WatchdogDump: io.Discard,
	})
	serve := func(s *Service, method, path, body, host string) (rr *httptest.ResponseRecorder, panicked bool) {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		req.RemoteAddr = host + ":40000"
		rr = httptest.NewRecorder()
		defer func() { panicked = recover() != nil }()
		s.ServeHTTP(rr, req)
		return rr, false
	}
	expect := func(s *Service, method, path, body, host string, want int) *httptest.ResponseRecorder {
		t.Helper()
		rr, _ := serve(s, method, path, body, host)
		if rr.Code != want {
			t.Fatalf("%s %s from %s: status %d, want %d: %s", method, path, host, rr.Code, want, rr.Body)
		}
		return rr
	}
	expect(svc, "POST", "/v1/sweep", testGridBody, "10.0.0.1", http.StatusOK) // cold
	expect(svc, "POST", "/v1/sweep", testGridBody, "10.0.0.2", http.StatusOK) // warm
	expect(svc, "POST", "/v1/sweep", `{}`, "10.0.0.3", http.StatusBadRequest)
	expect(svc, "POST", "/v1/sweep", testGridBody, "10.0.0.3", http.StatusTooManyRequests) // rate limit
	svc.sem <- struct{}{}
	expect(svc, "POST", "/v1/sweep", testGridBody, "10.0.0.4", http.StatusTooManyRequests) // in-flight bound
	<-svc.sem

	run := svc.Runs().NewRun("sweep", "wd-test", 1, 1)
	run.ShardStart(0, 0, "slow-cell", strings.Repeat("ab", 32))
	stop, done := make(chan struct{}), make(chan struct{})
	go func() { defer close(done); svc.watchdog(run, stop) }()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if strings.Contains(expect(svc, "GET", "/debug/events", "", "10.0.0.6", http.StatusOK).Body.String(), "watchdog_slow_scenario") {
			break
		}
	}
	close(stop)
	<-done
	run.ScenarioDone(0, false, false)
	run.Finish()

	// The failure paths: a store whose log has a torn tail to recover,
	// whose first sweep errors and whose second panics.
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	f, err := os.OpenFile(filepath.Join(dir, "results.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("torn tail")
	f.Close()
	fs := faults.New().
		Add(faults.Rule{Point: "cached_claim", Action: faults.ActError, Times: 1}).
		Add(faults.Rule{Point: "cached_claim", Action: faults.ActCrash, After: 1, Times: 1})
	if st, err = store.Open(dir, store.WithFaults(fs)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	failing := New(Config{Store: st, Workers: 1})
	expect(failing, "POST", "/v1/sweep", testGridBody, "10.0.0.7", http.StatusInternalServerError)
	if _, panicked := serve(failing, "POST", "/v1/sweep", testGridBody, "10.0.0.7"); !panicked {
		t.Fatal("the crash failpoint did not panic the sweep")
	}
	expect(failing, "POST", "/v1/sweep", testGridBody, "10.0.0.7", http.StatusOK)

	seen := map[string]bool{}
	for _, s := range []*Service{svc, failing} {
		for _, ev := range s.Events().Events() {
			seen[ev.Name] = true
			keys, ok := eventTaxonomy[ev.Name]
			if !eventNameRE.MatchString(ev.Name) || !ok {
				t.Errorf("event %q: want a snake_case name from the taxonomy %v", ev.Name, slices.Sorted(maps.Keys(eventTaxonomy)))
			}
			for k := range ev.Fields {
				if !fieldKeyRE.MatchString(k) || !slices.Contains(keys, k) {
					t.Errorf("event %q field %q: want a snake_case key from %v", ev.Name, k, keys)
				}
			}
		}
	}
	for name := range eventTaxonomy {
		if !seen[name] {
			t.Errorf("the driven traffic recorded no %s event", name)
		}
	}

	for _, s := range []*Service{svc, failing} {
		active, completed := s.Runs().Snapshots()
		if len(completed) == 0 {
			t.Fatal("no completed runs to check")
		}
		for _, r := range append(active, completed...) {
			if !eventNameRE.MatchString(r.Kind) || !slices.Contains(runKinds, r.Kind) {
				t.Errorf("run %s kind %q: want a snake_case kind from %v", r.ID, r.Kind, runKinds)
			}
		}
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for name := range eventTaxonomy {
		if !strings.Contains(string(design), "`"+name+"`") {
			t.Errorf("DESIGN.md does not list the event %s", name)
		}
	}
}
