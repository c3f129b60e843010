// Package idonly is a from-scratch Go reproduction of "Byzantine
// Agreement with Unknown Participants and Failures" (Khanchandani &
// Wattenhofer, IPDPS 2021, arXiv:2102.10442): Byzantine agreement
// primitives for synchronous systems in which nodes know neither the
// number of participants n nor the fault bound f, with the optimal
// resiliency n > 3f.
//
// The implementation lives under internal/: the protocols in
// internal/core (reliable broadcast, rotor-coordinator, consensus,
// approximate agreement, parallel consensus, dynamic total ordering),
// the synchronous and asynchronous simulators in internal/sim and
// internal/async, the classical known-n,f baselines in
// internal/baseline, Byzantine strategies in internal/adversary, the
// parallel scenario engine in internal/engine, the content-addressed
// result store in internal/store, the sweep-serving HTTP layer in
// internal/service, and the experiment harness in
// internal/experiments. See README.md for a guided tour,
// DESIGN.md for the system inventory, and EXPERIMENTS.md for the
// paper-claim vs measured record. Performance is measured by the
// separate benchmark module under benchmark/.
//
// # Parallel scenario engine
//
// internal/engine fans many independent (protocol × adversary × size ×
// seed) simulation runs across a worker pool (Scenario, Grid and RunAll
// are re-exported from this package); each run is one goroutine. One
// determinism contract holds: each scenario seeds its own ids.Rand, the
// simulator steps and delivers in increasing-id order, and reports
// merge results in scenario order and aggregates in sorted key order —
// so the report's canonical bytes are identical for every worker count.
//
// # Result store and sweep service
//
// Determinism makes results cacheable: ScenarioDigest addresses a
// scenario's result before it runs, the store OpenStore returns
// persists results in an append-only crash-recovering segment log
// keyed by that digest, and CachedRunAll partitions a sweep into store
// hits and computed misses — a warm re-run performs zero simulator
// rounds and reproduces the cold run's canonical report byte for byte.
// `idonly serve` exposes the same caching plane over HTTP (POST
// /v1/sweep, GET /v1/result/{digest}).
//
// # Examples
//
// The package examples walk through consensus, a ledger, sensor
// fusion, the asynchronous impossibility constructions and churn using
// only this package's API; `go test .` checks their output.
package idonly
