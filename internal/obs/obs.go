// Package obs is the repository's observability plane: a
// dependency-free (standard library only) metrics registry of atomic
// counters, gauges and fixed-bucket histograms rendered in the
// Prometheus text exposition format, an NDJSON trace sink for
// per-scenario span records, and the shared structured-logging flag
// pair the four binaries use.
//
// Design constraints, in order:
//
//   - Hot-path cost: a Counter.Add or Histogram.Observe is one or two
//     atomic operations, no locks, no allocation. The registry mutex is
//     only taken at registration and render time, so instrumented code
//     holds metric pointers and never touches the registry per event.
//   - Zero cost when disabled: every instrumentation site in engine,
//     store and service is a nil check around a held pointer; a build
//     with observability off the hot path is the same build with the
//     pointers nil (EXPERIMENTS.md's BENCH_4 table: allocs/op identical
//     to the build without the plane). What the pointers cost when set
//     is the benchmark's obs.hooks_on_ratio.
//   - Determinism of the rendered form: families sort by name, series
//     sort by label signature, so two renders of the same state are
//     byte-identical — golden-testable like everything else here.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one metric dimension. A metric's identity is its name plus
// its full sorted label set, as in Prometheus.
type Label struct {
	Key, Value string
}

// L builds a Label; it exists to keep registration sites one line.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are a programming error and are dropped
// so the counter stays monotonic.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket latency/size histogram: cumulative
// rendering happens at scrape time, so Observe touches exactly one
// bucket counter, the total count and the sum — all atomically,
// lock-free. Bucket bounds are upper bounds in increasing order; the
// +Inf bucket is implicit.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	total   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. the le bucket
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, upd) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 < q < 1) by linear
// interpolation inside the bucket holding the q-rank, exactly as
// Prometheus's histogram_quantile does; samples in the +Inf bucket
// clamp to the highest finite bound. Under concurrent Observe calls the
// estimate is a consistent-enough snapshot, not an atomic one.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		cum += c
		if float64(cum) >= rank && c > 0 {
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			frac := (rank - float64(cum-c)) / float64(c)
			return lower + (h.bounds[i]-lower)*frac
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// LatencyBuckets spans 1µs to 25s in roughly 5x steps — wide enough to
// hold both a store ReadAt (microseconds) and a cold large-grid sweep
// (tens of seconds) without per-site tuning.
var LatencyBuckets = []float64{
	1e-6, 5e-6, 25e-6, 1e-4, 5e-4, 25e-4, 1e-2, 5e-2, 0.25, 1, 5, 25,
}

// kind is a family's metric type; mixing kinds under one name is a
// registration error.
type kind uint8

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one (name, labels) time series inside a family. Exactly one
// of c, g, fn, h is set; fn backs both counter- and gauge-typed
// callback series.
type series struct {
	labels string // rendered `key="value",...` in sorted key order; "" if none
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

// family groups every series of one metric name under one HELP/TYPE.
type family struct {
	name string
	help string
	kind kind

	series []*series
	byKey  map[string]*series
}

// Registry holds named metric families. Registration is idempotent on
// (name, labels): asking for an already-registered series returns the
// existing instance, so packages can look metrics up by name without
// coordinating init order. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// The repo's naming grammar, a subset of Prometheus's: metric names are
// idonly_-prefixed snake_case and label keys snake_case, so the scrape
// surface stays greppable and collision-free. Registration panics on
// anything else, so every test that builds the instrumented tiers
// enforces it.
var (
	metricNameRE = regexp.MustCompile(`^idonly(_[a-z0-9]+)+$`)
	labelNameRE  = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
)

// labelKey renders labels in sorted key order; it is both the series
// identity and (almost) the rendered form.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if !labelNameRE.MatchString(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Key))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// lookup returns (creating if needed) the family and the series slot
// for (name, labels); make is called under the registry lock to build a
// missing series.
func (r *Registry) lookup(name, help string, k kind, labels []Label, make_ func() *series) *series {
	if !metricNameRE.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, byKey: make(map[string]*series)}
		r.families[name] = f
	} else if f.kind != k {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, k, f.kind))
	}
	if s := f.byKey[key]; s != nil {
		return s
	}
	s := make_()
	s.labels = key
	f.byKey[key] = s
	f.series = append(f.series, s)
	sort.Slice(f.series, func(i, j int) bool { return f.series[i].labels < f.series[j].labels })
	return s
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, counterKind, labels, func() *series { return &series{c: new(Counter)} })
	if s.c == nil {
		panic(fmt.Sprintf("obs: counter %q already registered as a callback", name))
	}
	return s.c
}

// CounterFunc registers a callback-backed counter series: fn is read at
// render time and must be monotonic (it typically snapshots an atomic
// the owning package already maintains).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.lookup(name, help, counterKind, labels, func() *series { return &series{fn: fn} })
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, gaugeKind, labels, func() *series { return &series{g: new(Gauge)} })
	if s.g == nil {
		panic(fmt.Sprintf("obs: gauge %q already registered as a callback", name))
	}
	return s.g
}

// GaugeFunc registers a callback-backed gauge series, read at render
// time — the natural fit for values something else already tracks (log
// size, index entries, in-flight slots).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.lookup(name, help, gaugeKind, labels, func() *series { return &series{fn: fn} })
}

// Histogram registers (or returns the existing) histogram series over
// the given bucket upper bounds (strictly increasing; +Inf implicit).
// Series of one family share bounds by construction: the first
// registration fixes them.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if len(bounds) == 0 {
		panic(fmt.Sprintf("obs: histogram %q needs at least one bucket bound", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing", name))
		}
	}
	s := r.lookup(name, help, histogramKind, labels, func() *series {
		b := make([]float64, len(bounds))
		copy(b, bounds)
		return &series{h: &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}}
	})
	if s.h == nil {
		panic(fmt.Sprintf("obs: histogram %q already registered with another kind", name))
	}
	return s.h
}

// famSnap is a render-time copy of one family: the series slice is
// copied under the registry lock so rendering (and its gauge callbacks,
// which may take other packages' locks) runs with no registry lock
// held. Callbacks must therefore never register metrics themselves.
type famSnap struct {
	name   string
	help   string
	kind   kind
	series []*series
}

// snapshot returns the families sorted by name; series inside each are
// already label-sorted.
func (r *Registry) snapshot() []famSnap {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]famSnap, 0, len(r.families))
	for _, f := range r.families {
		s := make([]*series, len(f.series))
		copy(s, f.series)
		out = append(out, famSnap{name: f.name, help: f.help, kind: f.kind, series: s})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
