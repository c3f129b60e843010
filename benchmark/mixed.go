package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"idonly/internal/engine"
	"idonly/internal/service"
	"idonly/internal/store"
)

// Request kinds of the serve-mixed schedule.
const (
	kindHot  = 'h' // the pre-filled 48-scenario grid, served from the store
	kindDup  = 'd' // a never-seen 4-scenario grid, the same on both clients at this index
	kindCold = 'c' // a never-seen 2-scenario grid of this client's own
)

const (
	scheduleLen = 1 << 16 // kinds generated; an index beyond it wraps (the grids stay never-seen)
	hotShare    = 70      // percent
	dupShare    = 15      // percent; the rest is cold
	verifyEvery = 50      // every 50th reply's report digest is re-derived after the timed section
	hotWarmups  = 20
)

// mixedSchedule generates the request kinds from the seed alone. Both
// clients walk the same schedule, each at its own pace.
func mixedSchedule(seed uint64, n int) []byte {
	rng := rand.New(rand.NewPCG(seed, 0x6d69786564)) // "mixed"
	kinds := make([]byte, n)
	for i := range kinds {
		switch r := rng.IntN(100); {
		case r < hotShare:
			kinds[i] = kindHot
		case r < hotShare+dupShare:
			kinds[i] = kindDup
		default:
			kinds[i] = kindCold
		}
	}
	return kinds
}

// hotGrid is serve-mixed's cached grid: 2 protocols x {silent, split}
// x n=7 x static/churn x 6 seeds = 48 scenarios (8 when quick).
func hotGrid(c *runCtx) engine.Grid {
	g := engine.Grid{
		Name:        "bench-hot",
		Protocols:   []string{engine.ProtoRBroadcast, engine.ProtoConsensus},
		Adversaries: []string{engine.AdvSilent, engine.AdvSplit},
		Sizes:       []int{7},
		Seeds:       gridSeeds(c.seed, 6),
		Churns:      []engine.Churn{{}, fullChurn},
	}
	if c.quick {
		g.Seeds = gridSeeds(c.seed, 1)
	}
	return g
}

// mixedGrid returns the grid client sends at schedule index k. Every
// index owns eight scenario seeds nobody else uses — four for the dup
// grid both clients share, two for each client's cold grid — and the
// two kinds use different protocols, so a dup or cold scenario is
// never in the store before its first request.
func mixedGrid(seed uint64, kind byte, k, client int, hot engine.Grid) engine.Grid {
	base := seed<<40 | uint64(k)<<3
	switch kind {
	case kindDup:
		return engine.Grid{Name: "bench-dup", Protocols: []string{engine.ProtoRBroadcast},
			Adversaries: []string{engine.AdvSilent}, Sizes: []int{7},
			Seeds: []uint64{base, base + 1, base + 2, base + 3}}
	case kindCold:
		own := base + 4 + uint64(2*client)
		return engine.Grid{Name: "bench-cold", Protocols: []string{engine.ProtoConsensus},
			Adversaries: []string{engine.AdvSilent}, Sizes: []int{7},
			Seeds: []uint64{own, own + 1}}
	}
	return hot
}

// mixedSample is one completed serve-mixed op.
type mixedSample struct {
	kind      byte
	ms        float64
	scenarios int
	covered   bool // dup only: answered without a fresh computation
	joined    bool // dup only: coalesced onto an in-flight sweep
}

// spotCheck is a reply kept for verification after the timed section.
type spotCheck struct {
	grid   engine.Grid
	digest string
}

type mixedWorkload struct {
	c *runCtx

	hot      engine.Grid
	hotBody  []byte
	schedule []byte
	oracleS  float64

	dir  string
	srv  *server
	next [maxClients]int // each client's next schedule index, across run calls

	checks []spotCheck
	traced []mixedSample // the traced run's samples, for layers

	before, after service.Counters
	counted       int
}

func (w *mixedWorkload) prepare() error {
	w.hot = hotGrid(w.c)
	w.hotBody = sweepBody(w.hot)
	w.schedule = mixedSchedule(w.c.seed, scheduleLen)
	return nil
}

// setup fills a store with the small grid (a service that has history)
// and the hot grid, reopens it, so Open's recovery of a 336-record log
// is part of setup, and sends the warm-ups.
func (w *mixedWorkload) setup() error {
	w.dir = w.c.newDir()
	srv, err := startServer(w.dir)
	if err != nil {
		return err
	}
	small := smallGrid(w.c)
	_, _, fillErr := w.request(srv, kindHot, small, sweepBody(small))
	if fillErr == nil {
		_, _, fillErr = w.request(srv, kindHot, w.hot, w.hotBody)
	}
	if err := srv.stop(); err != nil {
		return err
	}
	if fillErr != nil {
		return fmt.Errorf("pre-fill: %w", fillErr)
	}
	if w.srv, err = startServer(w.dir); err != nil {
		return err
	}
	n := hotWarmups
	if w.c.quick {
		n = 1
	}
	for i := 0; i < n; i++ {
		if _, _, err := w.request(w.srv, kindHot, w.hot, w.hotBody); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *mixedWorkload) teardown() error {
	if w.srv == nil {
		return nil
	}
	err := w.srv.stop()
	w.srv = nil
	cleanup(w.dir)
	return err
}

// request sends one grid over the default NDJSON format and makes the
// inline checks: status 200, no result line carrying an error, and a
// trailer that counts every scenario. It returns the trailer's report
// digest.
func (w *mixedWorkload) request(srv *server, kind byte, g engine.Grid, body []byte) (mixedSample, string, error) {
	t0 := time.Now()
	reply, err := srv.sweep(body, "")
	s := mixedSample{kind: kind, ms: float64(time.Since(t0).Nanoseconds()) / 1e6}
	if err != nil {
		return s, "", err
	}
	if reply.status != http.StatusOK {
		return s, "", fmt.Errorf("status %d: %s", reply.status, bytes.TrimSpace(reply.body))
	}
	s.joined = reply.coalesced
	s.covered = reply.coalesced || reply.computed == "0"
	// Result.Err is the only field that renders as "err": a scenario
	// name cannot contain an unescaped quote.
	if bytes.Contains(reply.body, []byte(`"err":`)) {
		return s, "", errors.New("reply carries a scenario error")
	}
	lines := bytes.Split(bytes.TrimSpace(reply.body), []byte("\n"))
	var trailer service.SweepTrailer
	if err := json.Unmarshal(lines[len(lines)-1], &trailer); err != nil {
		return s, "", fmt.Errorf("decoding trailer: %w", err)
	}
	s.scenarios = len(g.Protocols) * len(g.Adversaries) * len(g.Sizes) * len(g.Seeds) * max(len(g.Churns), 1)
	if trailer.Scenarios != s.scenarios || len(lines) != s.scenarios+1 {
		return s, "", fmt.Errorf("trailer counts %d scenarios over %d result lines, want %d", trailer.Scenarios, len(lines)-1, s.scenarios)
	}
	return s, trailer.ReportDigest, nil
}

func (w *mixedWorkload) run(d time.Duration, tr *tracer) (opStats, error) {
	var (
		mu      sync.Mutex
		st      opStats
		samples []mixedSample
		wg      sync.WaitGroup
		err     error
	)
	if tr != nil {
		if w.before, err = w.srv.stats(); err != nil {
			return st, err
		}
	}
	clock, err := newPeriodClock(window)
	if err != nil {
		return st, err
	}
	var clockErr error
	start := time.Now()
	for client := 0; client < maxClients; client++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := 0; ; done++ {
				k := w.next[client]
				w.next[client]++
				kind := w.schedule[k%len(w.schedule)]
				g, body := w.hot, w.hotBody
				if kind != kindHot {
					g = mixedGrid(w.c.seed, kind, k, client, w.hot)
					body = sweepBody(g)
				}
				root := tr.begin("service.roundtrip."+string(kind), -1, k*maxClients+client)
				s, digest, opErr := w.request(w.srv, kind, g, body)
				tr.end(root, 1)
				mu.Lock()
				st.attempted++
				scenarios := int64(0)
				if opErr != nil {
					st.failed++
					logf("client %d op %d (%c) failed: %v", client, k, kind, opErr)
				} else {
					samples = append(samples, s)
					st.ms = append(st.ms, s.ms)
					scenarios = int64(s.scenarios)
					if done%verifyEvery == 0 {
						w.checks = append(w.checks, spotCheck{g, digest})
					}
				}
				if err := clock.opDone(scenarios); err != nil {
					clockErr = err
				}
				stop := clockErr != nil || time.Since(start) >= d
				mu.Unlock()
				if stop {
					return
				}
			}
		}()
	}
	wg.Wait()
	if clockErr != nil {
		return st, clockErr
	}
	if st.periods, err = clock.periods(); err != nil {
		return st, err
	}
	if tr != nil {
		w.traced = samples
		w.counted = st.attempted
		w.after, err = w.srv.stats()
	}
	return st, err
}

// verify re-derives every kept reply's report digest with a direct
// engine.RunAll — no service, no store — and counts the mismatches.
func (w *mixedWorkload) verify() (int, error) {
	t0 := time.Now()
	defer func() { w.oracleS += time.Since(t0).Seconds() }()
	failed := 0
	hotDigest := ""
	for _, c := range w.checks {
		want := hotDigest
		if c.grid.Name != w.hot.Name || want == "" {
			rep := engine.RunAll(c.grid.Scenarios(), engine.Options{Workers: pinWorkers, Grid: c.grid.Name})
			var err error
			if want, err = rep.ContentDigest(); err != nil {
				return failed, err
			}
			if c.grid.Name == w.hot.Name {
				hotDigest = want
			}
		}
		if c.digest != want {
			failed++
			logf("grid %s seeds %v: served report digest %s, direct run %s", c.grid.Name, c.grid.Seeds, c.digest, want)
		}
	}
	w.checks = nil
	return failed, nil
}

func (w *mixedWorkload) layers(d time.Duration, tr *tracer, m metrics) error {
	m.set("bench.oracle_s", w.oracleS)
	m.set("service.new_ns", float64(w.srv.newNS))
	m.set("store.open_ns", float64(w.srv.openNS))
	reportCounters(m, w.before, w.after, w.counted)

	var all []float64
	var dups, joined, covered float64
	for _, s := range w.traced {
		all = append(all, s.ms)
		if s.kind == kindDup {
			dups++
			if s.joined {
				joined++
			}
			if s.covered {
				covered++
			}
		}
	}
	reportTail(m, all)
	m.set("service.roundtrip_ns", median(byName(tr.spans, "service.roundtrip.h")))
	if dups > 0 {
		m.set("service.coalesced_ratio", joined/dups)
		m.set("service.dup_covered_ratio", covered/dups)
	}
	// A hot request as direct calls: the cached run over the open store
	// and the canonical render its NDJSON trailer's digest needs.
	st := w.srv.st
	specs := w.hot.Scenarios()
	var hotResults []engine.Result
	err := untilDeadline(d/2, func(i int) error {
		root := tr.begin("direct.op", -1, i)
		sp := tr.begin("store.cached_runall", root, i)
		rep, rs, err := store.CachedRunAll(st, specs, engine.Options{
			Workers: pinWorkers, Grid: w.hot.Name, Hooks: serviceHooks(w.hot.Name, len(specs)),
		})
		tr.end(sp, 1)
		if err != nil {
			return err
		}
		if rs.Misses != 0 {
			return fmt.Errorf("hot grid missed %d scenarios", rs.Misses)
		}
		hotResults = rep.Results
		sp = tr.begin("engine.render", root, i)
		_, err = rep.ContentDigest()
		tr.end(sp, 1)
		tr.end(root, 1)
		return err
	})
	if err != nil {
		return err
	}
	m.set("store.cached_runall_ns", median(byName(tr.spans, "store.cached_runall")))
	m.set("engine.render_ns", median(byName(tr.spans, "engine.render")))
	m.set("service.self_ns", m["service.roundtrip_ns"]-m["store.cached_runall_ns"]-m["engine.render_ns"])
	var rounds, msgs int64
	for _, r := range hotResults {
		rounds += int64(r.Rounds)
		msgs += r.MessagesDelivered
	}
	m.set("engine.rounds", float64(rounds)) // the hot grid's, as stored
	m.set("engine.msgs", float64(msgs))

	// One-record durable appends, the write a cold request ends with:
	// results computed beforehand, each PutBatch paying its own fsync.
	// Seeds past the small grid's, which the store already holds.
	fresh := engine.Grid{Name: "bench-put1", Protocols: []string{engine.ProtoApprox},
		Adversaries: []string{engine.AdvSilent}, Sizes: []int{7}, Seeds: gridSeeds(w.c.seed, 612)[100:]}
	results := engine.RunAll(fresh.Scenarios(), engine.Options{Workers: pinWorkers}).Results
	var puts []float64
	for i, start := 0, time.Now(); i < len(results) && time.Since(start) < d/2 && err == nil; i++ {
		t0 := time.Now()
		err = st.PutBatch(results[i : i+1])
		ns := time.Since(t0).Nanoseconds()
		puts = append(puts, float64(ns))
		tr.record("store.put1", -1, i, t0, ns)
	}
	m.set("store.put1_ns", median(puts))
	return err
}
