package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"idonly/internal/engine"
	"idonly/internal/faults"
	"idonly/internal/store"
)

// testGrid is small enough to sweep in milliseconds but still crosses
// two protocols and two adversaries.
const testGridBody = `{"grid": {
	"name": "svc-test",
	"protocols": ["consensus", "rbroadcast"],
	"adversaries": ["silent", "split"],
	"sizes": [7],
	"seeds": [1, 2]
}}`

func newTestService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	cfg.Store = st
	svc := New(cfg)
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	return svc, ts
}

// newFaultedService builds a service over a store with a failpoint set
// attached, so a test can hold a sweep in flight by delaying its store
// fsync, or crash it at a chosen point.
func newFaultedService(t *testing.T, cfg Config, fs *faults.Set) (*Service, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.WithFaults(fs))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	cfg.Store = st
	svc := New(cfg)
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)
	return svc, ts
}

// slowFirstAppend arms a failpoint set that holds the first PutBatch
// fsync open for d (log_sync hit 0 is the open-time magic write).
func slowFirstAppend(d time.Duration) *faults.Set {
	return faults.New().Add(faults.Rule{
		Point: "log_sync", Action: faults.ActSleep, After: 1, Times: 1, Delay: d,
	})
}

// wantCanonical computes the test grid's canonical report bytes
// directly, without the service or the store.
func wantCanonical(t *testing.T) []byte {
	t.Helper()
	var req SweepRequest
	if err := json.Unmarshal([]byte(testGridBody), &req); err != nil {
		t.Fatal(err)
	}
	want, err := engine.RunAll(req.Grid.Scenarios(), engine.Options{Grid: "svc-test"}).CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func postSweep(t *testing.T, ts *httptest.Server, query, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweep"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestSweepNDJSONStream(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 2})
	resp, body := postSweep(t, ts, "", testGridBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	sc := bufio.NewScanner(bytes.NewReader(body))
	var results []engine.Result
	var trailer *SweepTrailer
	for sc.Scan() {
		line := sc.Bytes()
		if trailer != nil {
			t.Fatalf("line after trailer: %s", line)
		}
		var res engine.Result
		if err := json.Unmarshal(line, &res); err != nil {
			t.Fatalf("bad NDJSON line: %v\n%s", err, line)
		}
		if res.Scenario.Protocol != "" {
			// A result line is exactly what json.Encoder would write.
			if want, err := json.Marshal(&res); err != nil || !bytes.Equal(line, want) {
				t.Fatalf("result line differs from json.Marshal (err %v):\n got %s\nwant %s", err, line, want)
			}
			results = append(results, res)
			continue
		}
		trailer = new(SweepTrailer)
		if err := json.Unmarshal(line, trailer); err != nil {
			t.Fatalf("bad trailer: %v\n%s", err, line)
		}
	}
	if len(results) != 8 {
		t.Fatalf("streamed %d results, want 8", len(results))
	}
	if trailer == nil {
		t.Fatal("no trailer line")
	}
	if trailer.Scenarios != 8 || trailer.Cache.Misses != 8 || trailer.Cache.Hits != 0 {
		t.Fatalf("cold trailer %+v", trailer)
	}
	if trailer.ReportDigest == "" || len(trailer.Groups) == 0 {
		t.Fatalf("trailer missing digest/groups: %+v", trailer)
	}

	// Warm repeat: all hits, same report digest.
	_, body2 := postSweep(t, ts, "", testGridBody)
	lines := bytes.Split(bytes.TrimSpace(body2), []byte("\n"))
	var warm SweepTrailer
	if err := json.Unmarshal(lines[len(lines)-1], &warm); err != nil {
		t.Fatal(err)
	}
	if warm.Cache.Hits != 8 || warm.Cache.Misses != 0 {
		t.Fatalf("warm trailer cache %+v, want 8 hits", warm.Cache)
	}
	if warm.ReportDigest != trailer.ReportDigest {
		t.Fatal("warm report digest differs from cold")
	}
	if snap := svc.Snapshot(); snap.Sweeps != 2 || snap.CacheHits != 8 || snap.CacheMisses != 8 {
		t.Fatalf("counters %+v", snap)
	}
}

// TestSweepCanonicalMatchesEngine is the HTTP half of the acceptance
// criterion: the served canonical report is byte-identical to the one
// the engine computes directly.
func TestSweepCanonicalMatchesEngine(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 2})
	resp, body := postSweep(t, ts, "?format=canonical", testGridBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	want := wantCanonical(t)
	if !bytes.Equal(body, want) {
		t.Fatal("served canonical report differs from a direct engine run")
	}
	// And again from the warm cache.
	_, warm := postSweep(t, ts, "?format=canonical", testGridBody)
	if !bytes.Equal(warm, want) {
		t.Fatal("warm served canonical report differs")
	}
}

func TestResultByDigest(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 2})
	postSweep(t, ts, "", testGridBody)

	var req SweepRequest
	json.Unmarshal([]byte(testGridBody), &req)
	spec := req.Grid.Scenarios()[0]
	resp, err := http.Get(ts.URL + "/v1/result/" + spec.Digest())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var res engine.Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Scenario.Protocol != spec.Protocol || res.Scenario.Seed != spec.Seed {
		t.Fatalf("served result for %+v, want %s/seed=%d", res.Scenario, spec.Protocol, spec.Seed)
	}

	for path, wantCode := range map[string]int{
		"/v1/result/" + strings.Repeat("0", 64): http.StatusNotFound,
		"/v1/result/nothex":                     http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("%s: status %d, want %d", path, resp.StatusCode, wantCode)
		}
	}
}

func TestHealthzAndStats(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 2})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		OK      bool `json:"ok"`
		Results int  `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !health.OK || health.Results != 0 {
		t.Fatalf("health %+v", health)
	}

	postSweep(t, ts, "", testGridBody)
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats Counters
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Sweeps != 1 || stats.ScenariosServed != 8 || stats.CacheMisses != 8 {
		t.Fatalf("stats %+v", stats)
	}
	if stats.Store.Records != 8 || stats.SweepNSTotal <= 0 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestSweepRejectsBadRequests(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1, MaxScenarios: 10})
	for body, wantCode := range map[string]int{
		`{`:                 http.StatusBadRequest,
		`{}`:                http.StatusBadRequest,
		`{"preset":"nope"}`: http.StatusBadRequest,
		`{"preset":"small","grid":{"protocols":["consensus"]}}`: http.StatusBadRequest,
		`{"preset":"small","churn":"zz9"}`:                      http.StatusBadRequest,
		`{"preset":"small","churn":"j2,j1"}`:                    http.StatusBadRequest,
		`{"preset":"small"}`:                                    http.StatusRequestEntityTooLarge, // 288 > MaxScenarios=10
	} {
		resp, b := postSweep(t, ts, "", body)
		if resp.StatusCode != wantCode {
			t.Fatalf("body %s: status %d (%s), want %d", body, resp.StatusCode, b, wantCode)
		}
	}
	// Per-scenario compute bounds: a legal-looking grid naming a huge
	// system or horizon is rejected before any simulation happens.
	resp, b := postSweep(t, ts, "", `{"grid":{"protocols":["consensus"],"adversaries":["silent"],"sizes":[200000],"seeds":[1]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized n: status %d (%s)", resp.StatusCode, b)
	}
	resp, b = postSweep(t, ts, "", `{"grid":{"protocols":["consensus"],"adversaries":["silent"],"sizes":[7],"seeds":[1],"max_rounds":100000000}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized max_rounds: status %d (%s)", resp.StatusCode, b)
	}
	// A churn axis on a run too short for its first churn round would
	// apply no churn and report none.
	resp, b = postSweep(t, ts, "", `{"grid":{"protocols":["consensus"],"adversaries":["silent"],"sizes":[7],"seeds":[1],"max_rounds":2},"churn":"fj1,fl1"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("churn with max_rounds 2: status %d (%s)", resp.StatusCode, b)
	}

	// Joiners count against MaxN: a cell of n nodes and j joins runs
	// n + j, through the churn string or the grid's churn axis alike.
	_, small := newTestService(t, Config{Workers: 1, MaxN: 10})
	const dyn7 = `"protocols":["dynamic"],"adversaries":["silent"],"sizes":[7],"seeds":[1]`
	for body, wantCode := range map[string]int{
		`{"grid":{` + dyn7 + `},"churn":"j4"}`:              http.StatusBadRequest,
		`{"grid":{` + dyn7 + `,"churns":[{},{"joins":4}]}}`: http.StatusBadRequest,
		`{"grid":{` + dyn7 + `},"churn":"j3"}`:              http.StatusOK, // exactly MaxN
		`{"grid":{` + dyn7 + `,"churns":[{"joins":3}]}}`:    http.StatusOK,
	} {
		resp, b := postSweep(t, small, "", body)
		if resp.StatusCode != wantCode {
			t.Fatalf("MaxN 10, body %s: status %d (%s), want %d", body, resp.StatusCode, b, wantCode)
		}
	}

	// An invalid scenario inside the grid is a 400, not a sweep error.
	resp, _ = postSweep(t, ts, "", `{"grid":{"protocols":["nope"],"adversaries":["silent"],"sizes":[7],"seeds":[1]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid protocol: status %d", resp.StatusCode)
	}
	resp, _ = postSweep(t, ts, "?format=martian", `{"grid":{"protocols":["consensus"],"adversaries":["silent"],"sizes":[7],"seeds":[1]}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown format: status %d", resp.StatusCode)
	}
}

// TestSweepInFlightBound: with the semaphore held, a sweep gets 429 +
// Retry-After instead of queueing.
func TestSweepInFlightBound(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 1, MaxInFlight: 1})
	svc.sem <- struct{}{} // occupy the only slot
	resp, body := postSweep(t, ts, "", testGridBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	<-svc.sem
	if snap := svc.Snapshot(); snap.SweepsRejected != 1 {
		t.Fatalf("rejected counter %d", snap.SweepsRejected)
	}
	resp, _ = postSweep(t, ts, "", testGridBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("freed slot still rejecting: %d", resp.StatusCode)
	}
}

// TestChurnOverride mirrors `idonly sweep`'s -churn flag over HTTP.
func TestChurnOverride(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 2})
	body := `{"grid": {
		"name": "churned",
		"protocols": ["dynamic"],
		"adversaries": ["silent"],
		"sizes": [10],
		"seeds": [1]
	}, "churn": "fj1,fl1"}`
	resp, out := postSweep(t, ts, "?format=report", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
	var rep engine.Report
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("%d results", len(rep.Results))
	}
	if c := rep.Results[0].Scenario.Churn; c == nil || c.FaultyJoins != 1 || c.FaultyLeaves != 1 {
		t.Fatalf("churn override not applied: %+v", rep.Results[0].Scenario.Churn)
	}
}

// TestCoalesceManyIdenticalSweeps is the coalescing hammer: 32
// identical concurrent sweeps, each with its own in-flight slot, must
// all succeed with byte-identical canonical reports while the store's
// per-digest flights admit exactly one simulation of each scenario.
func TestCoalesceManyIdenticalSweeps(t *testing.T) {
	const callers = 32
	svc, ts := newTestService(t, Config{Workers: 2, MaxInFlight: callers})
	want := wantCanonical(t)

	var (
		start    = make(chan struct{})
		wg       sync.WaitGroup
		mu       sync.Mutex
		bodies   [][]byte
		computed int
		statuses = map[int]int{}
	)
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/sweep?format=canonical", "application/json",
				strings.NewReader(testGridBody))
			if err != nil {
				t.Error(err)
				return
			}
			body := new(bytes.Buffer)
			body.ReadFrom(resp.Body)
			resp.Body.Close()
			mu.Lock()
			defer mu.Unlock()
			statuses[resp.StatusCode]++
			bodies = append(bodies, body.Bytes())
			n, err := strconv.Atoi(resp.Header.Get("X-Idonly-Computed"))
			if err != nil {
				t.Errorf("X-Idonly-Computed: %v", err)
			}
			computed += n
			if resp.Header.Get("X-Idonly-Run") == "" {
				t.Errorf("response without X-Idonly-Run")
			}
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	if statuses[http.StatusOK] != callers {
		t.Fatalf("statuses %v, want %d 200s", statuses, callers)
	}
	for i, b := range bodies {
		if !bytes.Equal(b, want) {
			t.Fatalf("response %d diverged from the direct engine report", i)
		}
	}
	if computed != 8 {
		t.Fatalf("X-Idonly-Computed headers sum to %d over %d identical sweeps, want 8", computed, callers)
	}
	snap := svc.Snapshot()
	// CacheMisses counts scenarios the engine actually executed.
	if snap.CacheMisses != 8 || snap.Store.Puts != 8 {
		t.Fatalf("engine computed %d, store persisted %d for %d identical sweeps, want 8 and 8",
			snap.CacheMisses, snap.Store.Puts, callers)
	}
	if snap.SweepsRejected != 0 {
		t.Fatalf("%d sweeps were 429d with %d slots", snap.SweepsRejected, callers)
	}
}

// TestCoalesceLeaderDisconnect cancels the request that is computing
// the grid while its batch is pinned inside the store fsync. A second
// identical sweep must still get the full report, served entirely from
// the first one's store flights: a sweep's computation does not depend
// on its client staying connected.
func TestCoalesceLeaderDisconnect(t *testing.T) {
	_, ts := newFaultedService(t,
		Config{Workers: 2, MaxInFlight: 2}, slowFirstAppend(500*time.Millisecond))
	want := wantCanonical(t)

	ctx, cancel := context.WithCancel(context.Background())
	firstErr := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, "POST",
			ts.URL+"/v1/sweep?format=canonical", strings.NewReader(testGridBody))
		if err != nil {
			firstErr <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		firstErr <- nil
	}()
	// Let the first sweep reach its fsync, then send the second and yank
	// the first mid-fsync (the fsync holds for 500ms).
	time.Sleep(100 * time.Millisecond)
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	resp, body := postSweep(t, ts, "?format=canonical", testGridBody)
	if err := <-firstErr; err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second sweep status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Idonly-Computed"); got != "0" {
		t.Fatalf("second sweep X-Idonly-Computed = %q, want 0", got)
	}
	if resp.Header.Get("X-Idonly-Coalesced") != "1" {
		t.Fatal("second sweep response missing X-Idonly-Coalesced")
	}
	if !bytes.Equal(body, want) {
		t.Fatal("second sweep's report diverged after the first disconnected")
	}
	// The first sweep persisted its results despite the disconnect: a
	// warm repeat is all cache hits.
	resp2, warm := postSweep(t, ts, "?format=canonical", testGridBody)
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(warm, want) {
		t.Fatalf("warm sweep after disconnect: status %d", resp2.StatusCode)
	}
}

// TestCoalesceFollowerCancellation is the mirror image: a request
// abandoning its wait on another's store flights must not disturb that
// request's reply.
func TestCoalesceFollowerCancellation(t *testing.T) {
	_, ts := newFaultedService(t,
		Config{Workers: 2, MaxInFlight: 2}, slowFirstAppend(500*time.Millisecond))
	want := wantCanonical(t)

	type result struct {
		resp *http.Response
		body []byte
		err  error
	}
	leaderDone := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/sweep?format=canonical", "application/json",
			strings.NewReader(testGridBody))
		if err != nil {
			leaderDone <- result{err: err}
			return
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		leaderDone <- result{resp: resp, body: buf.Bytes()}
	}()
	time.Sleep(100 * time.Millisecond)
	fctx, fcancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer fcancel()
	freq, err := http.NewRequestWithContext(fctx, "POST",
		ts.URL+"/v1/sweep?format=canonical", strings.NewReader(testGridBody))
	if err != nil {
		t.Fatal(err)
	}
	if fresp, err := http.DefaultClient.Do(freq); err == nil {
		fresp.Body.Close()
	}

	leader := <-leaderDone
	if leader.err != nil {
		t.Fatal(leader.err)
	}
	if leader.resp.StatusCode != http.StatusOK {
		t.Fatalf("leader status %d after follower cancel: %s", leader.resp.StatusCode, leader.body)
	}
	if got := leader.resp.Header.Get("X-Idonly-Computed"); got != "8" {
		t.Fatalf("leader X-Idonly-Computed = %q, want 8", got)
	}
	if !bytes.Equal(leader.body, want) {
		t.Fatal("leader report diverged after follower cancel")
	}
}

// TestSweepPanicReleasesRun crashes a sweep inside the store (the
// cached_claim failpoint panics once) and checks that the panic leaves
// nothing behind: no live run in GET /v1/runs, and the in-flight slot
// free for the next sweep, which serves the full report.
func TestSweepPanicReleasesRun(t *testing.T) {
	crash := faults.New().Add(faults.Rule{Point: "cached_claim", Action: faults.ActCrash, Times: 1})
	_, ts := newFaultedService(t,
		Config{Workers: 2, MaxInFlight: 1, ScenarioDeadline: time.Hour}, crash)

	if resp, err := http.Post(ts.URL+"/v1/sweep", "application/json",
		strings.NewReader(testGridBody)); err == nil {
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Fatal("crashed sweep answered 200")
		}
	}
	resp, err := http.Get(ts.URL + "/v1/runs")
	if err != nil {
		t.Fatal(err)
	}
	var runs RunList
	if err := json.NewDecoder(resp.Body).Decode(&runs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(runs.Active) != 0 {
		t.Fatalf("%d runs still live after the sweep panicked: %+v", len(runs.Active), runs.Active)
	}

	resp2, body := postSweep(t, ts, "?format=canonical", testGridBody)
	if resp2.StatusCode != http.StatusOK || !bytes.Equal(body, wantCanonical(t)) {
		t.Fatalf("sweep after the panic: status %d", resp2.StatusCode)
	}
}

// TestSweepRetryAfterDerived pins the in-flight 429's Retry-After to
// the observed sweep-latency median, clamped to [1, 30] seconds: 1 on a
// cold process, the median once sweeps have run, the top of the latency
// histogram (25s, inside the clamp) when sweeps are pathologically slow.
func TestSweepRetryAfterDerived(t *testing.T) {
	svc, _ := newTestService(t, Config{Workers: 1})
	if got := svc.sweepRetryAfter(); got != 1 {
		t.Fatalf("cold Retry-After = %d, want 1", got)
	}
	for i := 0; i < 3; i++ {
		svc.sweepLat.Observe(0.002) // fast sweeps: floor at 1
	}
	if got := svc.sweepRetryAfter(); got != 1 {
		t.Fatalf("fast-sweep Retry-After = %d, want 1", got)
	}
	svc2, _ := newTestService(t, Config{Workers: 1})
	for i := 0; i < 3; i++ {
		svc2.sweepLat.Observe(100) // beyond the top bucket: estimate 25s
	}
	got := svc2.sweepRetryAfter()
	if got != 25 {
		t.Fatalf("slow-sweep Retry-After = %d, want the 25s bucket top", got)
	}
	if got < 1 || got > 30 {
		t.Fatalf("Retry-After %d escaped the [1, 30] clamp", got)
	}
}
