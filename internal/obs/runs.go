package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Run states, as rendered in RunSnapshot.State.
const (
	RunRunning = "running"
	RunDone    = "done"
)

// ShardSnapshot is one worker lane's live state inside a run: whether
// it is busy, which scenario it is on (sweep index, name, digest), how
// long it has held it, and how many scenarios it has finished.
type ShardSnapshot struct {
	Worker   int    `json:"worker"`
	Busy     bool   `json:"busy"`
	Seq      int    `json:"seq"`
	Scenario string `json:"scenario,omitempty"`
	Digest   string `json:"digest,omitempty"`
	BusyNS   int64  `json:"busy_ns,omitempty"` // time on the current scenario
	Done     int64  `json:"done"`              // scenarios this shard completed
}

// RunSnapshot is the GET /v1/runs view of one run: progress counters,
// the cache/compute split, timing, a rate-based ETA while running, and
// the per-shard states. FullyCached marks a completed run every one of
// whose scenarios came from the result store — the signature of a warm
// re-sweep.
type RunSnapshot struct {
	ID          string          `json:"id"`
	Kind        string          `json:"kind"`
	Grid        string          `json:"grid,omitempty"`
	State       string          `json:"state"`
	Total       int             `json:"total"`
	Done        int64           `json:"done"`
	CacheHits   int64           `json:"cache_hits"`
	Computed    int64           `json:"computed"`
	Errors      int64           `json:"errors"`
	FullyCached bool            `json:"fully_cached"`
	Workers     int             `json:"workers"`
	StartUnixNS int64           `json:"start_unix_ns"`
	ElapsedNS   int64           `json:"elapsed_ns"`
	ETANS       int64           `json:"eta_ns,omitempty"` // remaining work at the observed rate; 0 when unknown or done
	Shards      []ShardSnapshot `json:"shards,omitempty"`
}

// shard is one worker lane's mutable state. Each lane is written by
// exactly one engine worker, so the mutex only synchronizes against
// snapshot readers and the watchdog.
type shard struct {
	mu       sync.Mutex
	busy     bool
	seq      int
	scenario string
	digest   string
	startNS  int64
	fired    bool // watchdog already fired for the current scenario
	done     atomic.Int64
}

// RunRecord is the live record of one sweep. The engine's hook sites
// update it with atomic counters and per-shard writes; snapshots are
// taken concurrently by the progress API. All methods are nil-safe so
// an unhooked sweep pays one nil check per site.
type RunRecord struct {
	id      string
	kind    string
	grid    string
	total   int
	workers int
	startNS int64

	done     atomic.Int64
	hits     atomic.Int64
	computed atomic.Int64
	errors   atomic.Int64
	endNS    atomic.Int64 // 0 while running

	shards []shard
	reg    *RunRegistry
}

// ID returns the run's registry-assigned identifier.
func (r *RunRecord) ID() string {
	if r == nil {
		return ""
	}
	return r.id
}

// ShardStart marks worker as busy on scenario seq. Called by the
// engine just before a scenario computes; cache hits never occupy a
// shard (worker < 0 is ignored).
func (r *RunRecord) ShardStart(worker, seq int, scenario, digest string) {
	if r == nil || worker < 0 || worker >= len(r.shards) {
		return
	}
	s := &r.shards[worker]
	s.mu.Lock()
	s.busy = true
	s.seq = seq
	s.scenario = scenario
	s.digest = digest
	s.startNS = time.Now().UnixNano()
	s.fired = false
	s.mu.Unlock()
}

// ScenarioDone counts one finished scenario: cached marks a store hit
// (worker is then -1 and no shard is touched), errored a validation
// failure or invariant panic.
func (r *RunRecord) ScenarioDone(worker int, cached, errored bool) {
	if r == nil {
		return
	}
	r.done.Add(1)
	if cached {
		r.hits.Add(1)
	} else {
		r.computed.Add(1)
	}
	if errored {
		r.errors.Add(1)
	}
	if worker >= 0 && worker < len(r.shards) {
		s := &r.shards[worker]
		s.done.Add(1)
		s.mu.Lock()
		s.busy = false
		s.mu.Unlock()
	}
}

// Finish seals the record and moves it into the registry's bounded
// completed ring. Idempotent; further ScenarioDone calls are lost to
// snapshots, so the engine finishes runs only after its worker pool
// drains.
func (r *RunRecord) Finish() {
	if r == nil || !r.endNS.CompareAndSwap(0, time.Now().UnixNano()) {
		return
	}
	if r.reg != nil {
		r.reg.complete(r)
	}
}

// Snapshot returns a point-in-time view. Counters are read atomically
// but not as one transaction; done counts are monotonic, which is the
// property watch streams rely on.
func (r *RunRecord) Snapshot() RunSnapshot {
	if r == nil {
		return RunSnapshot{}
	}
	now := time.Now().UnixNano()
	end := r.endNS.Load()
	done := r.done.Load()
	hits := r.hits.Load()
	snap := RunSnapshot{
		ID:          r.id,
		Kind:        r.kind,
		Grid:        r.grid,
		State:       RunRunning,
		Total:       r.total,
		Done:        done,
		CacheHits:   hits,
		Computed:    r.computed.Load(),
		Errors:      r.errors.Load(),
		Workers:     r.workers,
		StartUnixNS: r.startNS,
		ElapsedNS:   now - r.startNS,
	}
	if end != 0 {
		snap.State = RunDone
		snap.ElapsedNS = end - r.startNS
		snap.FullyCached = int(hits) == r.total && int(done) == r.total
	} else if done > 0 && int(done) < r.total {
		snap.ETANS = (int64(r.total) - done) * snap.ElapsedNS / done
	}
	for w := range r.shards {
		s := &r.shards[w]
		s.mu.Lock()
		sh := ShardSnapshot{Worker: w, Busy: s.busy, Seq: s.seq,
			Scenario: s.scenario, Digest: s.digest, Done: s.done.Load()}
		if s.busy {
			sh.BusyNS = now - s.startNS
		}
		s.mu.Unlock()
		snap.Shards = append(snap.Shards, sh)
	}
	return snap
}

// SlowShards returns the shards that have been busy on one scenario
// for longer than deadline and have not yet been reported, marking
// each so a watchdog fires once per (shard, scenario), not once per
// tick.
func (r *RunRecord) SlowShards(deadline time.Duration) []ShardSnapshot {
	if r == nil || deadline <= 0 {
		return nil
	}
	now := time.Now().UnixNano()
	var out []ShardSnapshot
	for w := range r.shards {
		s := &r.shards[w]
		s.mu.Lock()
		if s.busy && !s.fired && now-s.startNS > deadline.Nanoseconds() {
			s.fired = true
			out = append(out, ShardSnapshot{Worker: w, Busy: true, Seq: s.seq,
				Scenario: s.scenario, Digest: s.digest, BusyNS: now - s.startNS,
				Done: s.done.Load()})
		}
		s.mu.Unlock()
	}
	return out
}

// RunRegistry tracks live runs and keeps a bounded ring of completed
// snapshots for post-hoc inspection. A nil registry is valid: NewRun
// then returns a nil record and every hook site degrades to a nil
// check.
type RunRegistry struct {
	mu     sync.Mutex
	nextID int64
	active map[string]*RunRecord
	done   []RunSnapshot // newest last; bounded to keep
	keep   int
}

// NewRunRegistry returns a registry retaining the last keep completed
// runs (minimum 1; keep <= 0 means 64).
func NewRunRegistry(keep int) *RunRegistry {
	if keep <= 0 {
		keep = 64
	}
	return &RunRegistry{active: make(map[string]*RunRecord), keep: keep}
}

// NewRun registers a live run. kind is a snake_case taxonomy name
// (checked on /v1/runs by internal/service TestEmittedNamesFollowGrammar,
// like event names); grid is the
// optional grid label; total and workers size the progress bar and the
// shard table.
func (g *RunRegistry) NewRun(kind, grid string, total, workers int) *RunRecord {
	if g == nil {
		return nil
	}
	if workers < 0 {
		workers = 0
	}
	g.mu.Lock()
	g.nextID++
	r := &RunRecord{
		id:      fmt.Sprintf("run-%06d", g.nextID),
		kind:    kind,
		grid:    grid,
		total:   total,
		workers: workers,
		startNS: time.Now().UnixNano(),
		shards:  make([]shard, workers),
		reg:     g,
	}
	g.active[r.id] = r
	g.mu.Unlock()
	return r
}

// complete moves a finished record from the active map into the
// completed ring, evicting the oldest beyond the retention bound.
func (g *RunRegistry) complete(r *RunRecord) {
	snap := r.Snapshot()
	g.mu.Lock()
	delete(g.active, r.id)
	g.done = append(g.done, snap)
	if len(g.done) > g.keep {
		g.done = g.done[len(g.done)-g.keep:]
	}
	g.mu.Unlock()
}

// Get returns the snapshot for one run ID, live or completed.
func (g *RunRegistry) Get(id string) (RunSnapshot, bool) {
	if g == nil {
		return RunSnapshot{}, false
	}
	g.mu.Lock()
	r := g.active[id]
	if r == nil {
		for i := len(g.done) - 1; i >= 0; i-- {
			if g.done[i].ID == id {
				snap := g.done[i]
				g.mu.Unlock()
				return snap, true
			}
		}
		g.mu.Unlock()
		return RunSnapshot{}, false
	}
	g.mu.Unlock()
	return r.Snapshot(), true
}

// Snapshots returns every known run — live first, then completed —
// each group newest-first by ID, so the listing is deterministic for a
// fixed registry state.
func (g *RunRegistry) Snapshots() (active, completed []RunSnapshot) {
	if g == nil {
		return nil, nil
	}
	g.mu.Lock()
	live := make([]*RunRecord, 0, len(g.active))
	for _, r := range g.active {
		live = append(live, r)
	}
	completed = make([]RunSnapshot, len(g.done))
	copy(completed, g.done)
	g.mu.Unlock()
	sort.Slice(live, func(i, j int) bool { return live[i].id > live[j].id })
	for _, r := range live {
		active = append(active, r.Snapshot())
	}
	sort.Slice(completed, func(i, j int) bool { return completed[i].ID > completed[j].ID })
	return active, completed
}
