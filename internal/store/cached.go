package store

import (
	"runtime"
	"time"

	"idonly/internal/engine"
)

// RunStats describes how one CachedRunAll call split its grid.
type RunStats struct {
	Hits      int `json:"hits"`      // scenarios served from the store (zero simulator rounds)
	Misses    int `json:"misses"`    // scenarios the store did not hold: computed by this call or coalesced
	Coalesced int `json:"coalesced"` // misses served by another caller's in-flight computation
}

// CachedRunAll is engine.RunAll behind the store: it partitions the
// scenario list into hits (served straight from the store by scenario
// digest, in one pass that reads each run of adjacent records with one
// ReadAt) and misses (fanned through the engine's worker pool exactly
// as RunAll would, then persisted as one batch), and assembles the same
// Report — results in input order, groups aggregated in sorted key
// order. A fully warm run executes zero simulator rounds, and because
// stored results are the byte-for-byte results of a cold run, the warm
// report's canonical bytes are identical to the cold report's.
//
// Misses additionally coalesce across concurrent callers: each missing
// digest is registered as a singleflight, so when N CachedRunAll calls
// race on overlapping grids, each scenario is computed by exactly one
// of them and the rest wait for that flight instead of re-running the
// simulator (RunStats.Coalesced counts those). A leader keeps its
// fulfilled flights registered until their batch is durable, and a
// caller that wins a lead probes the store once more before computing:
// between its first Get and its claim another leader may have come and
// gone, and then the record is there. A leader always
// fulfills its own flights before waiting on anyone else's — two calls
// leading disjoint halves of the same grid can never deadlock — and a
// leader that fails abandons its flights, downgrading every waiter to
// a local computation. Coalescing is a fast path only; correctness
// never depends on another caller finishing.
//
// opts.Hooks flows through: cache hits and coalesced results are
// reported via ObserveCached (a span per scenario, WallNS the store
// lookup or flight wait time), misses run through RunHooked with their
// real worker slot and sweep index, so a traced warm sweep still shows
// every cell of the grid.
func CachedRunAll(st *Store, specs []engine.Scenario, opts engine.Options) (*engine.Report, RunStats, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	hooks := opts.Hooks
	hooked := hooks.Enabled()

	var stats RunStats
	results := make([]engine.Result, len(specs))
	digests := make([]string, len(specs))
	names := make([]string, len(specs))
	for i := range specs {
		digests[i], names[i] = specs[i].Digest(), specs[i].Name
	}
	found := make([]bool, len(specs))
	var lookupNS []int64
	if hooked {
		lookupNS = make([]int64, len(specs))
	}
	if err := st.getAll(digests, names, results, found, lookupNS); err != nil {
		return nil, stats, err
	}
	var missIdx []int
	for i, ok := range found {
		if !ok {
			missIdx = append(missIdx, i)
			continue
		}
		stats.Hits++
		if hooked {
			hooks.ObserveCached(i, digests[i], &results[i], lookupNS[i])
		}
	}
	if len(missIdx) > 0 {
		if err := st.faults.Check("cached_claim"); err != nil {
			return nil, stats, err
		}
		// Claim a flight per miss: leads are ours to compute, follows
		// are someone else's in-flight computation we wait on.
		type follow struct {
			i int
			f *flight
		}
		var leadIdx []int
		var leadFlights []*flight
		var follows []follow
		// Whatever happens below — an encode error, an unexpected panic
		// out of the engine — our flights must not strand their
		// followers: any not yet fulfilled are abandoned on the way out.
		// Fulfilled ones stay registered until then, which is after their
		// batch became durable: a caller that leads afresh finds the
		// records in the store.
		fulfilled := false
		defer func() {
			for k, f := range leadFlights {
				if !fulfilled {
					st.finishFlight(digests[leadIdx[k]], f, engine.Result{}, false)
				}
				st.dropFlight(digests[leadIdx[k]], f)
			}
		}()
		for _, i := range missIdx {
			f, leader := st.beginFlight(digests[i])
			if !leader {
				follows = append(follows, follow{i: i, f: f})
				continue
			}
			lookup := time.Now()
			res, ok, err := st.Get(digests[i])
			if err != nil || ok {
				// An earlier leader finished between our miss and this
				// claim; its record is durable. Serve it as the hit it is.
				st.finishFlight(digests[i], f, res, ok)
				st.dropFlight(digests[i], f)
				if err != nil {
					return nil, stats, err
				}
				results[i] = res
				stats.Hits++
				if hooked {
					hooks.ObserveCached(i, digests[i], &results[i], time.Since(lookup).Nanoseconds())
				}
				continue
			}
			leadIdx = append(leadIdx, i)
			leadFlights = append(leadFlights, f)
		}
		stats.Misses = len(leadIdx) + len(follows)
		if len(leadIdx) > 0 {
			fresh := engine.MapWorker(workers, len(leadIdx), func(w, j int) engine.Result {
				return specs[leadIdx[j]].RunHooked(w, leadIdx[j], hooks)
			})
			for j, res := range fresh {
				results[leadIdx[j]] = res
			}
			// Fulfill before persisting or waiting: followers unblock as
			// early as possible, and a leader never waits on a flight
			// while still holding unfulfilled ones of its own.
			for k, f := range leadFlights {
				st.finishFlight(digests[leadIdx[k]], f, fresh[k], true)
			}
			fulfilled = true
			// One batch, one barrier — errored results are persisted
			// too: validation failures and invariant panics are as
			// deterministic as clean runs, so recomputing them would buy
			// nothing.
			if err := st.PutBatch(fresh); err != nil {
				return nil, stats, err
			}
		} else {
			fulfilled = true
		}
		var localIdx []int
		for _, fo := range follows {
			var wait time.Time
			if hooked {
				wait = time.Now()
			}
			<-fo.f.done
			if fo.f.ok {
				results[fo.i] = fo.f.res
				stats.Coalesced++
				st.coalesced.Add(1)
				if hooked {
					hooks.ObserveCached(fo.i, digests[fo.i], &results[fo.i], time.Since(wait).Nanoseconds())
				}
			} else {
				localIdx = append(localIdx, fo.i)
			}
		}
		if len(localIdx) > 0 {
			fresh := engine.MapWorker(workers, len(localIdx), func(w, j int) engine.Result {
				return specs[localIdx[j]].RunHooked(w, localIdx[j], hooks)
			})
			for j, res := range fresh {
				results[localIdx[j]] = res
			}
			if err := st.PutBatch(fresh); err != nil {
				return nil, stats, err
			}
		}
	}
	return &engine.Report{
		Grid:      opts.Grid,
		Scenarios: len(specs),
		Workers:   workers,
		ElapsedNS: time.Since(start).Nanoseconds(),
		Groups:    hooks.Aggregate(results),
		Results:   results,
	}, stats, nil
}
