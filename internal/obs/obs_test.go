package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("idonly_test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	c.Add(-3) // dropped: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("idonly_test_depth", "depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

// TestRegistrationIdempotent: the same (name, labels) returns the same
// instance; different labels under one name are distinct series.
func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("idonly_test_reqs_total", "reqs", L("code", "200"))
	b := r.Counter("idonly_test_reqs_total", "reqs", L("code", "200"))
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	c := r.Counter("idonly_test_reqs_total", "reqs", L("code", "500"))
	if a == c {
		t.Fatal("distinct labels returned the same counter")
	}
	// Label order must not matter to identity.
	d := r.Counter("idonly_test_multi_total", "m", L("a", "1"), L("b", "2"))
	e := r.Counter("idonly_test_multi_total", "m", L("b", "2"), L("a", "1"))
	if d != e {
		t.Fatal("label order changed series identity")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("idonly_test_thing", "x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("idonly_test_thing", "x")
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for what, fn := range map[string]func(){
		"leading digit":        func() { r.Counter("0bad", "x") },
		"dash":                 func() { r.Counter("has-dash", "x") },
		"no idonly_ prefix":    func() { r.Gauge("unprefixed_records", "x") },
		"bare prefix":          func() { r.Counter("idonly_", "x") },
		"camel case":           func() { r.Histogram("idonly_BadCase_seconds", "x", []float64{1}) },
		"colon":                func() { r.Counter("idonly_rule:sum", "x") },
		"label leading digit":  func() { r.Counter("idonly_test_ok", "x", L("0bad", "v")) },
		"label camel case":     func() { r.Counter("idonly_test_ok", "x", L("badKey", "v")) },
		"label struct literal": func() { r.Counter("idonly_test_ok", "x", Label{Key: "also-bad key", Value: "v"}) },
		"no buckets":           func() { r.Histogram("idonly_test_h", "x", nil) },
		"unsorted buckets":     func() { r.Histogram("idonly_test_h2", "x", []float64{2, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: invalid registration did not panic", what)
				}
			}()
			fn()
		}()
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("idonly_test_lat_seconds", "latency", []float64{0.1, 1, 10})
	for i := 0; i < 90; i++ {
		h.Observe(0.05) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(5) // third bucket
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if s := h.Sum(); math.Abs(s-(90*0.05+10*5)) > 1e-9 {
		t.Fatalf("sum = %v", s)
	}
	// p50 interpolates inside the first bucket; p99 inside (1, 10].
	if q := h.Quantile(0.5); q <= 0 || q > 0.1 {
		t.Fatalf("p50 = %v, want in (0, 0.1]", q)
	}
	if q := h.Quantile(0.99); q <= 1 || q > 10 {
		t.Fatalf("p99 = %v, want in (1, 10]", q)
	}
	// Samples past the last bound land in +Inf and clamp to the
	// highest finite bound.
	h.Observe(1e6)
	if q := h.Quantile(0.9999); q != 10 {
		t.Fatalf("clamped quantile = %v, want 10", q)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("idonly_test_empty_seconds", "x", []float64{1})
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v", q)
	}
}

// TestRegistryConcurrentHammer drives registration, updates and
// rendering from many goroutines at once; under -race (the CI test
// job) this is the registry's data-race proof for the concurrent-sweep
// usage the service puts it to.
func TestRegistryConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("idonly_test_fn", "fn", func() float64 { return 42 })
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			codes := []string{"200", "429", "500"}
			for i := 0; i < 500; i++ {
				r.Counter("idonly_test_reqs_total", "reqs", L("code", codes[i%3])).Inc()
				r.Gauge("idonly_test_inflight", "g").Add(1)
				r.Histogram("idonly_test_lat_seconds", "lat", LatencyBuckets).Observe(float64(i) / 1e4)
				if i%100 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, code := range []string{"200", "429", "500"} {
		total += r.Counter("idonly_test_reqs_total", "reqs", L("code", code)).Value()
	}
	if total != 8*500 {
		t.Fatalf("lost increments: %d, want %d", total, 8*500)
	}
	if h := r.Histogram("idonly_test_lat_seconds", "lat", LatencyBuckets); h.Count() != 8*500 {
		t.Fatalf("histogram count %d, want %d", h.Count(), 8*500)
	}
}

func TestTraceWriter(t *testing.T) {
	var sb strings.Builder
	tw := NewTraceWriter(&sb)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := tw.Write(map[string]int{"worker": w, "i": i}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 200 {
		t.Fatalf("%d lines, want 200", len(lines))
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "{") || !strings.HasSuffix(l, "}") {
			t.Fatalf("interleaved line: %q", l)
		}
	}
}
