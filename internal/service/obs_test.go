package service

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"

	"idonly/internal/engine"
	"idonly/internal/obs"
)

// TestMetricsEndpoint: after a cold and a warm sweep, /metrics serves
// valid exposition text carrying the service, engine, and store
// families with values matching the traffic.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 2})
	postSweep(t, ts, "", testGridBody) // cold: 8 computed
	postSweep(t, ts, "", testGridBody) // warm: 8 cached

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("content type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(b)
	for _, want := range []string{
		// service tier
		"idonly_sweeps_total 2\n",
		"idonly_sweep_scenarios_total 16\n",
		"idonly_sweeps_in_flight 0\n",
		`idonly_http_requests_total{code="200",endpoint="sweep"} 2` + "\n",
		"idonly_http_request_seconds_count{endpoint=\"sweep\"} 2\n",
		// engine tier
		`idonly_engine_scenarios_total{source="computed"} 8` + "\n",
		`idonly_engine_scenarios_total{source="cached"} 8` + "\n",
		// store tier
		"idonly_store_records 8\n",
		"idonly_store_puts_total 8\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The scrape surface is closed: registration already panics on a name
	// outside the grammar, and this pins each family a service exposes
	// with its label keys, so a computed name that fits the grammar but
	// forks a family fails too.
	if got := scrapedFamilies(out); !maps.Equal(got, metricFamilies) {
		for name, keys := range got {
			if want, ok := metricFamilies[name]; !ok || want != keys {
				t.Errorf("exposition family %s{%s}, want %q in metricFamilies (%v)", name, keys, want, ok)
			}
		}
		for name := range metricFamilies {
			if _, ok := got[name]; !ok {
				t.Errorf("exposition lacks the family %s", name)
			}
		}
	}
	if t.Failed() {
		t.Fatalf("full exposition:\n%s", out)
	}
}

// metricFamilies is every family a service's /metrics exposes after
// sweeps, each with its comma-joined label keys.
var metricFamilies = map[string]string{
	"idonly_sweeps_total":                         "",
	"idonly_sweeps_rejected_total":                "",
	"idonly_sweep_scenarios_total":                "",
	"idonly_result_lookups_total":                 "",
	"idonly_sweep_wall_ns_total":                  "",
	"idonly_sweep_last_ns":                        "",
	"idonly_sweep_seconds":                        "",
	"idonly_sweeps_in_flight":                     "",
	"idonly_watchdog_fires_total":                 "",
	"idonly_ratelimit_rejected_total":             "",
	"idonly_http_request_seconds":                 "endpoint",
	"idonly_http_requests_total":                  "code,endpoint",
	"idonly_engine_scenarios_total":               "source",
	"idonly_engine_scenario_errors_total":         "",
	"idonly_engine_rounds_total":                  "",
	"idonly_engine_messages_total":                "",
	"idonly_engine_build_seconds":                 "",
	"idonly_engine_run_seconds":                   "",
	"idonly_engine_aggregate_seconds":             "",
	"idonly_store_records":                        "",
	"idonly_store_log_bytes":                      "",
	"idonly_store_gets_total":                     "",
	"idonly_store_get_hits_total":                 "",
	"idonly_store_puts_total":                     "",
	"idonly_store_dup_puts_total":                 "",
	"idonly_store_recovery_truncated_bytes_total": "",
	"idonly_store_coalesced_total":                "",
	"idonly_store_get_seconds":                    "",
	"idonly_store_append_seconds":                 "",
}

var labelKeyRE = regexp.MustCompile(`([a-z_][a-z0-9_]*)="`)

// scrapedFamilies maps each family in an exposition (its # TYPE line)
// to the comma-joined label keys of its samples, a histogram's le
// excluded.
func scrapedFamilies(exposition string) map[string]string {
	fams := map[string]string{}
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fams[strings.Fields(rest)[0]] = ""
		}
	}
	for _, line := range strings.Split(exposition, "\n") {
		name, labels, ok := strings.Cut(line, "{")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if _, isFam := fams[name]; !isFam {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, cut := strings.CutSuffix(name, suffix); cut {
					name = base
				}
			}
		}
		var keys []string
		for _, m := range labelKeyRE.FindAllStringSubmatch(labels, -1) {
			if m[1] != "le" {
				keys = append(keys, m[1])
			}
		}
		slices.Sort(keys)
		fams[name] = strings.Join(keys, ",")
	}
	return fams
}

// TestSweepTrace: trace=1 adds one span line per scenario between the
// results and the trailer, and the whole stream round-trips through
// engine.ReadSpans.
func TestSweepTrace(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 2})
	postSweep(t, ts, "", testGridBody) // warm the store

	resp, body := postSweep(t, ts, "?trace=1", testGridBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced sweep: %d %s", resp.StatusCode, body)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	// 8 results + 8 spans + 1 trailer
	if len(lines) != 17 {
		t.Fatalf("%d lines, want 17", len(lines))
	}
	spans, err := engine.ReadSpans(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 8 {
		t.Fatalf("%d spans, want 8", len(spans))
	}
	for i, sp := range spans {
		if sp.Seq != i {
			t.Fatalf("span %d out of order: %+v", i, sp)
		}
		if !sp.Cached || sp.Worker != -1 {
			t.Fatalf("warm sweep span not cached: %+v", sp)
		}
	}

	// trace=1 is an NDJSON affordance; other formats reject it.
	resp, _ = postSweep(t, ts, "?trace=1&format=canonical", testGridBody)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trace with canonical format: %d, want 400", resp.StatusCode)
	}
}

// TestStatsQuantiles: the histogram-derived p50/p99 fields appear and
// are plausible once a sweep has run.
func TestStatsQuantiles(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 2})
	postSweep(t, ts, "", testGridBody)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"sweep_ns_p50", "sweep_ns_p99"} {
		v, ok := raw[key].(float64)
		if !ok || v <= 0 {
			t.Fatalf("stats %s = %v, want positive", key, raw[key])
		}
	}
	// Backward-compatible fields are still present.
	for _, key := range []string{"sweeps", "cache_hits", "cache_misses", "sweep_ns_total", "last_sweep_ns", "store"} {
		if _, ok := raw[key]; !ok {
			t.Fatalf("stats lost field %q", key)
		}
	}
}

// TestPprofOptIn: pprof handlers answer only when enabled.
func TestPprofOptIn(t *testing.T) {
	_, off := newTestService(t, Config{Workers: 1})
	resp, err := http.Get(off.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof served without EnablePprof")
	}

	_, on := newTestService(t, Config{Workers: 1, EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline with EnablePprof: %d", resp.StatusCode)
	}
}

// TestConcurrentSweepMetrics hammers the registry from concurrent
// sweeps, scrapes, and stats reads — the race-mode workout for the
// whole observability plane.
func TestConcurrentSweepMetrics(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 2, MaxInFlight: 8})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				resp, err := http.Post(ts.URL+"/v1/sweep?trace=1", "application/json",
					strings.NewReader(testGridBody))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				for _, path := range []string{"/metrics", "/v1/stats", "/v1/healthz"} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
}
