package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"idonly/internal/engine"
	"idonly/internal/obs"
	"idonly/internal/service"
	"idonly/internal/store"
)

// warmups is how many untimed sweeps sweep-warm sends before its
// first timed one, so page cache, connection and heap are steady.
const warmups = 50

// sweepWorkload is sweep-cold (cold: every op opens an empty store and
// a fresh service, then POSTs the small grid) and sweep-warm (one
// pre-filled store, the same POST served from it). Both ask for the
// canonical format and compare every reply byte for byte with the
// oracle's.
type sweepWorkload struct {
	c    *runCtx
	cold bool

	grid    engine.Grid
	body    []byte
	want    []byte         // the oracle's canonical bytes
	wantRep *engine.Report // and its report
	oracleS float64

	dir string  // sweep-warm's store
	srv *server // sweep-warm's service
	ops int     // ops started so far, across run calls

	// The service's counters around the traced ops (sweep-cold: around
	// the last one, whose service started from zero).
	before, after service.Counters
	counted       int
}

func (w *sweepWorkload) prepare() error {
	w.grid = smallGrid(w.c)
	w.body = sweepBody(w.grid)
	t0 := time.Now()
	want, rep, err := oracle(w.grid)
	w.want, w.wantRep, w.oracleS = want, rep, time.Since(t0).Seconds()
	return err
}

// setup on sweep-cold is one untimed op, so heap and page cache are
// steady before the first timed one. On sweep-warm it pre-fills a
// store through the service, reopens it — so the timed ops run against
// a store that recovered its index from a 288-record log — and sends
// the warm-ups.
func (w *sweepWorkload) setup() error {
	if w.cold {
		_, err := w.coldOp(-1, nil)
		return err
	}
	w.dir = w.c.newDir()
	srv, err := startServer(w.dir)
	if err != nil {
		return err
	}
	_, fillErr := w.post(srv)
	if err := srv.stop(); err != nil {
		return err
	}
	if fillErr != nil {
		return fmt.Errorf("pre-fill: %w", fillErr)
	}
	if w.srv, err = startServer(w.dir); err != nil {
		return err
	}
	n := warmups
	if w.c.quick {
		n = 1
	}
	for i := 0; i < n; i++ {
		if _, err := w.post(w.srv); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *sweepWorkload) teardown() error {
	if w.srv == nil {
		return nil
	}
	err := w.srv.stop()
	w.srv = nil
	cleanup(w.dir)
	return err
}

// post sends the grid and checks the reply against the oracle. The
// error describes a failed op; it is not fatal to the run.
func (w *sweepWorkload) post(srv *server) (time.Duration, error) {
	t0 := time.Now()
	reply, err := srv.sweep(w.body, "canonical")
	d := time.Since(t0)
	switch {
	case err != nil:
		return d, err
	case reply.status != http.StatusOK:
		return d, fmt.Errorf("status %d: %s", reply.status, bytes.TrimSpace(reply.body))
	case !bytes.Equal(reply.body, w.want):
		return d, fmt.Errorf("reply differs from the oracle's canonical bytes (%d vs %d bytes)", len(reply.body), len(w.want))
	}
	return d, nil
}

func (w *sweepWorkload) run(d time.Duration, tr *tracer) (opStats, error) {
	var st opStats
	var err error
	if tr != nil && !w.cold {
		if w.before, err = w.srv.stats(); err != nil {
			return st, err
		}
	}
	every := window
	if w.cold {
		every = 0 // an op takes a second: each is its own period
	}
	clock, err := newPeriodClock(every)
	if err != nil {
		return st, err
	}
	err = untilDeadline(d, func(int) error {
		op := w.ops
		w.ops++
		st.attempted++
		var took time.Duration
		var opErr error
		if w.cold {
			took, opErr = w.coldOp(op, tr)
		} else {
			root := tr.begin("service.roundtrip", -1, op)
			took, opErr = w.post(w.srv)
			tr.end(root, 1)
		}
		if opErr != nil {
			st.failed++
			logf("op %d failed: %v", op, opErr)
			return clock.opDone(0)
		}
		st.ms = append(st.ms, float64(took.Nanoseconds())/1e6)
		return clock.opDone(int64(w.wantRep.Scenarios))
	})
	if err != nil {
		return st, err
	}
	if st.periods, err = clock.periods(); err != nil {
		return st, err
	}
	if tr != nil && !w.cold {
		w.after, err = w.srv.stats()
		w.counted = st.attempted
	}
	return st, err
}

// coldOp is one sweep-cold op: open an empty store, start a service on
// it, sweep. The op's time runs from before the open to the last reply
// byte; stopping the service and deleting the store are not timed.
func (w *sweepWorkload) coldOp(op int, tr *tracer) (time.Duration, error) {
	dir := w.c.newDir()
	defer cleanup(dir)
	root := tr.begin("op", -1, op)
	t0 := time.Now()
	srv, err := startServer(dir)
	if err != nil {
		return 0, err
	}
	tr.record("store.open", root, op, srv.openAt, srv.openNS)
	tr.record("service.new", root, op, srv.newAt, srv.newNS)
	rt := tr.begin("service.roundtrip", root, op)
	_, opErr := w.post(srv)
	tr.end(rt, 1)
	took := time.Since(t0)
	tr.end(root, 1)
	if tr != nil && opErr == nil {
		w.before, w.counted = service.Counters{}, 1
		w.after, opErr = srv.stats()
	}
	if err := srv.stop(); err != nil && opErr == nil {
		opErr = err
	}
	return took, opErr
}

func (w *sweepWorkload) verify() (int, error) { return 0, nil }

// serviceHooks builds the hook set the service runs every sweep with
// (engine metrics plus a live run record), over private registries.
func serviceHooks(grid string, total int) engine.Hooks {
	return engine.Hooks{
		Obs: engine.NewObs(obs.NewRegistry()),
		Run: obs.NewRunRegistry(pinRunHistory).NewRun("sweep", grid, total, pinWorkers),
	}
}

func (w *sweepWorkload) layers(d time.Duration, tr *tracer, m metrics) error {
	specs := w.grid.Scenarios()
	m.set("bench.oracle_s", w.oracleS)
	trips := byName(tr.spans, "service.roundtrip")
	m.set("service.roundtrip_ns", median(trips))
	for i := range trips {
		trips[i] /= 1e6
	}
	reportTail(m, trips)
	reportCounters(m, w.before, w.after, w.counted)
	var rounds, msgs int64
	for _, r := range w.wantRep.Results {
		rounds += int64(r.Rounds)
		msgs += r.MessagesDelivered
	}
	m.set("engine.rounds", float64(rounds))
	m.set("engine.msgs", float64(msgs))
	if w.cold {
		return w.coldLayers(d, tr, specs, m)
	}
	return w.warmLayers(d, tr, specs, m)
}

// warmLayers replays what the service does for a warm sweep as direct
// calls on the same inputs and the same open store — expand, the
// sweep-key digests, the cached run, the render — one "direct.op" span
// tree per pass, then the leaf calls on their own.
func (w *sweepWorkload) warmLayers(d time.Duration, tr *tracer, specs []engine.Scenario, m metrics) error {
	st := w.srv.st
	m.set("service.new_ns", float64(w.srv.newNS))
	// A bare net/http handler that answers with the oracle's bytes: what
	// shipping a reply of this size over loopback to the same client
	// costs with no service behind it.
	echo := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		rw.Header().Set("Content-Type", "application/json")
		rw.Write(w.want)
	}))
	defer echo.Close()
	digests := make([]string, len(specs))
	err := untilDeadline(d*3/4, func(i int) error {
		root := tr.begin("direct.op", -1, i)
		sp := tr.begin("http.echo", root, i)
		reply, err := w.srv.post(echo.URL, w.body)
		tr.end(sp, 1)
		if err != nil || !bytes.Equal(reply.body, w.want) {
			return fmt.Errorf("echo reply differs from what was written (err=%v)", err)
		}
		sp = tr.begin("engine.expand", root, i)
		expanded := w.grid.Scenarios()
		for _, s := range expanded {
			if err := s.Validate(); err != nil {
				return err
			}
		}
		tr.end(sp, 1)
		sp = tr.begin("engine.digest", root, i)
		for j := range expanded {
			digests[j] = expanded[j].Digest()
		}
		tr.end(sp, len(expanded))
		sp = tr.begin("store.cached_runall", root, i)
		rep, rs, err := store.CachedRunAll(st, expanded, engine.Options{
			Workers: pinWorkers, Grid: w.grid.Name, Hooks: serviceHooks(w.grid.Name, len(expanded)),
		})
		tr.end(sp, 1)
		if err != nil {
			return err
		}
		if rs.Misses != 0 {
			return fmt.Errorf("warm store missed %d of %d scenarios", rs.Misses, len(expanded))
		}
		sp = tr.begin("engine.render", root, i)
		b, err := rep.CanonicalBytes()
		tr.end(sp, 1)
		tr.end(root, 1)
		if err != nil {
			return err
		}
		if !bytes.Equal(b, w.want) {
			return fmt.Errorf("direct cached run differs from the oracle")
		}

		leaves := tr.begin("direct.leaves", -1, i)
		sp = tr.begin("store.get", leaves, i)
		for _, dg := range digests {
			if _, ok, err := st.Get(dg); err != nil || !ok {
				return fmt.Errorf("store.Get(%s): found=%v err=%v", dg[:12], ok, err)
			}
		}
		tr.end(sp, len(digests))
		sp = tr.begin("engine.aggregate", leaves, i)
		engine.Hooks{}.Aggregate(rep.Results)
		tr.end(sp, 1)
		tr.end(leaves, 1)
		return nil
	})
	if err != nil {
		return err
	}
	perCall := func(name string, calls int) float64 {
		return median(byName(tr.spans, name)) / float64(calls)
	}
	m.set("engine.expand_ns", perCall("engine.expand", 1))
	m.set("engine.digest_ns", perCall("engine.digest", len(specs)))
	m.set("store.cached_runall_ns", perCall("store.cached_runall", 1))
	m.set("engine.render_ns", perCall("engine.render", 1))
	m.set("store.get_ns", perCall("store.get", len(specs)))
	m.set("engine.aggregate_ns", perCall("engine.aggregate", 1))
	m.set("service.self_ns", m["service.roundtrip_ns"]-m["store.cached_runall_ns"]-m["engine.render_ns"])
	m.set("service.http_echo_ns", perCall("http.echo", 1))

	// Reopen the 288-record log a few times: store.Open's recovery scan
	// is what a restart pays before the first request.
	if err := w.srv.stop(); err != nil {
		return err
	}
	w.srv = nil
	defer cleanup(w.dir)
	var opens []float64
	err = untilDeadline(d/4, func(i int) error {
		t0 := time.Now()
		st, err := store.Open(w.dir)
		if err != nil {
			return err
		}
		ns := time.Since(t0).Nanoseconds()
		opens = append(opens, float64(ns))
		tr.record("store.open", -1, i, t0, ns)
		return st.Close()
	})
	m.set("store.open_ns", median(opens))
	return err
}

// coldLayers times the engine directly on the cold grid: the bare
// pool, then the pool with every hook the service installs, and the
// one 288-record batch write a cold sweep ends with.
func (w *sweepWorkload) coldLayers(d time.Duration, tr *tracer, specs []engine.Scenario, m metrics) error {
	m.set("service.new_ns", median(byName(tr.spans, "service.new")))
	m.set("store.open_ns", median(byName(tr.spans, "store.open")))

	var bare, hooked, busy []float64
	sums := make(map[string][]float64) // per hooked pass: phase and per-protocol span sums
	err := untilDeadline(d*3/4, func(i int) error {
		sp := tr.begin("engine.runall", -1, i)
		t0 := time.Now()
		rep := engine.RunAll(specs, engine.Options{Workers: pinWorkers, Grid: w.grid.Name})
		bare = append(bare, float64(time.Since(t0).Nanoseconds()))
		tr.end(sp, 1)
		if b, err := rep.CanonicalBytes(); err != nil || !bytes.Equal(b, w.want) {
			return fmt.Errorf("direct RunAll differs from the oracle (err=%v)", err)
		}

		hooks := serviceHooks(w.grid.Name, len(specs))
		sp = tr.begin("engine.runall.hooked", -1, i)
		var mu sync.Mutex
		pass := make(map[string]float64)
		hooks.Span = func(s engine.Span) {
			now := time.Now()
			proto := specs[s.Seq].Protocol
			mu.Lock()
			pass["engine.build_ns"] += float64(s.BuildNS)
			pass["engine.run_ns"] += float64(s.RunNS)
			pass["engine.run_ns."+proto] += float64(s.RunNS)
			pass["wall"] += float64(s.WallNS)
			mu.Unlock()
			tr.record("engine.build", sp, i, now.Add(-time.Duration(s.WallNS)), s.BuildNS)
			tr.record("engine.run."+proto, sp, i, now.Add(-time.Duration(s.RunNS)), s.RunNS)
		}
		t0 = time.Now()
		engine.RunAll(specs, engine.Options{Workers: pinWorkers, Grid: w.grid.Name, Hooks: hooks})
		wall := float64(time.Since(t0).Nanoseconds())
		hooks.Run.Finish()
		tr.end(sp, 1)
		hooked = append(hooked, wall)
		busy = append(busy, pass["wall"]/(pinWorkers*wall))
		delete(pass, "wall")
		for name, ns := range pass {
			sums[name] = append(sums[name], ns)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("engine.runall_ns", median(bare))
	m.set("obs.hooks_on_ratio", median(hooked)/median(bare))
	m.set("engine.pool_busy_ratio", median(busy))
	for name, perPass := range sums {
		m.set(name, median(perPass))
	}

	var puts []float64
	err = untilDeadline(d/4, func(i int) error {
		dir := w.c.newDir()
		defer cleanup(dir)
		st, err := store.Open(dir)
		if err != nil {
			return err
		}
		t0 := time.Now()
		err = st.PutBatch(w.wantRep.Results)
		ns := time.Since(t0).Nanoseconds()
		puts = append(puts, float64(ns))
		tr.record("store.putbatch", -1, i, t0, ns)
		if err != nil {
			st.Close()
			return err
		}
		return st.Close()
	})
	m.set("store.putbatch288_ns", median(puts))
	return err
}
