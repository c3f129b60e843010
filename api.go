package idonly

import (
	"idonly/internal/adversary"
	"idonly/internal/async"
	"idonly/internal/core/approx"
	"idonly/internal/core/consensus"
	"idonly/internal/core/dynamic"
	"idonly/internal/core/parallel"
	"idonly/internal/core/rbroadcast"
	"idonly/internal/engine"
	"idonly/internal/ids"
	"idonly/internal/sim"
	"idonly/internal/store"
)

// This file is the library's public surface: curated aliases and
// constructors over the internal packages, so that code outside this
// module can use the id-only algorithms without reaching into
// internal/. The package examples (example_test.go) use exactly this
// API, and every name here is used by an example, a test or cmd/idonly.

// ---------------------------------------------------------------------
// Identifiers and randomness
// ---------------------------------------------------------------------

// NodeID is a node identifier: unique, not necessarily consecutive.
type NodeID = ids.ID

// NewRand returns a seeded deterministic generator for reproducible
// workloads.
func NewRand(seed uint64) *ids.Rand { return ids.NewRand(seed) }

// SparseIDs returns n unique non-consecutive identifiers (sorted).
func SparseIDs(r *ids.Rand, n int) []NodeID { return ids.Sparse(r, n) }

// ---------------------------------------------------------------------
// Synchronous simulator
// ---------------------------------------------------------------------

// Process is a correct synchronous protocol participant, and Config
// configures the synchronous simulator; see package idonly/internal/sim
// for semantics.
type (
	Process = sim.Process
	Config  = sim.Config
)

// NewRunner builds a synchronous system over correct processes, faulty
// ids, and the adversary controlling them (nil when there are none).
func NewRunner(cfg Config, procs []Process, faulty []NodeID, adv sim.Adversary) *sim.Runner {
	return sim.NewRunner(cfg, procs, faulty, adv)
}

// ---------------------------------------------------------------------
// The id-only protocols (paper Algorithms 1–6)
// ---------------------------------------------------------------------

// NewReliableBroadcast returns an Algorithm 1 node; if source is true
// the node reliably broadcasts (m, id) in round 1.
func NewReliableBroadcast(id NodeID, source bool, m string) *rbroadcast.Node {
	return rbroadcast.New(id, source, m)
}

// ReliableBroadcastNode is the Algorithm 1 process type.
type ReliableBroadcastNode = rbroadcast.Node

// NewConsensus returns an Algorithm 3 node with real-valued input x.
func NewConsensus(id NodeID, x float64) *consensus.Node { return consensus.New(id, x) }

// ConsensusNode is the Algorithm 3 process type.
type ConsensusNode = consensus.Node

// NewIteratedApprox returns an Algorithm 4 node that iterates the
// broadcast-trim-midpoint step the given number of times; it may join a
// running system at any round.
func NewIteratedApprox(id NodeID, x float64, iterations int) *approx.Iterated {
	return approx.NewIterated(id, x, iterations)
}

// IteratedApproxNode is the iterated Algorithm 4 process type; its
// History holds the estimate after each iteration.
type IteratedApproxNode = approx.Iterated

// PairID identifies a parallel-consensus input pair; Val is an opinion.
type (
	PairID = parallel.PairID
	Val    = parallel.Val
)

// V wraps a string as a parallel-consensus opinion.
func V(s string) Val { return parallel.V(s) }

// NewParallelConsensus returns an Algorithm 5 node with the given input
// pairs.
func NewParallelConsensus(id NodeID, inputs map[PairID]Val) *parallel.Node {
	return parallel.NewNode(id, inputs)
}

// DynamicConfig configures an Algorithm 6 total-ordering participant;
// DynamicNode is the participant type and OrderedEvent one entry of
// its chain.
type (
	DynamicConfig = dynamic.Config
	DynamicNode   = dynamic.Node
	OrderedEvent  = dynamic.Event
)

// NewDynamicOrder returns an Algorithm 6 node. With cfg.Founders set it
// bootstraps as a founding member; otherwise it joins a running system
// via the present/ack protocol.
func NewDynamicOrder(cfg DynamicConfig) *dynamic.Node { return dynamic.New(cfg) }

// ---------------------------------------------------------------------
// Adversaries (a curated selection; more in internal/adversary)
// ---------------------------------------------------------------------

// SplitBrainAdversary pushes opposite consensus values to the two
// halves of the system at every protocol step.
func SplitBrainAdversary(x1, x2 float64, all []NodeID) sim.Adversary {
	return adversary.ConsSplit{X1: x1, X2: x2, All: all}
}

// OutlierAdversary feeds approximate-agreement nodes the value low on
// one half of the system and high on the other, trying to pull the
// correct estimates apart.
func OutlierAdversary(low, high float64, all []NodeID) sim.Adversary {
	return adversary.ApproxOutlier{Low: low, High: high, All: all}
}

// EquivocatingEventAdversary makes faulty dynamic-ordering members
// report conflicting events to the two halves of the system every
// every-th round.
func EquivocatingEventAdversary(all []NodeID, every int) sim.Adversary {
	return adversary.DynEquivEvent{All: all, Every: every}
}

// ---------------------------------------------------------------------
// Asynchronous demonstrations (paper Section IX)
// ---------------------------------------------------------------------

// AsyncProcess is a participant of the event-driven simulator used by
// the impossibility demonstrations.
type AsyncProcess = async.Process

// NewAsyncScheduler builds an asynchronous system with the given delay
// policy.
func NewAsyncScheduler(procs []AsyncProcess, delay async.DelayFn) *async.Scheduler {
	return async.NewScheduler(procs, delay)
}

// NewClosureGossip returns the Lemma 14 gossip node with a binary
// input: it decides once every node it knows has confirmed the same
// participant set.
func NewClosureGossip(id NodeID, input int) *async.ClosureGossip {
	return async.NewClosureGossip(id, input)
}

// NewTimeoutQuorum returns the Lemma 15 node with a binary input: it
// decides the majority of the values heard within its guess of the
// unknown delay bound.
func NewTimeoutQuorum(id NodeID, input int, guess float64) *async.TimeoutQuorum {
	return async.NewTimeoutQuorum(id, input, guess)
}

// PartitionDelay builds the Lemma 14/15 partition delay policy.
func PartitionDelay(groupA map[NodeID]bool, inner, cross float64) async.DelayFn {
	return async.PartitionDelay(groupA, inner, cross)
}

// ---------------------------------------------------------------------
// Parallel scenario engine
// ---------------------------------------------------------------------

// Scenario is one declarative simulation run — a protocol, an adversary
// strategy, a system size (n, f), an optional churn spec and a seed.
// Grid crosses protocols × adversaries × sizes × churn specs × seeds
// into a scenario list, and the report RunAll returns carries the
// sweep's per-scenario results plus per-cell aggregates (round and
// message percentiles, decision counts, churn metrics).
//
// Determinism contract: every scenario derives all randomness from its
// own seeded Rand — including the churn plan, whose join/leave rounds
// are resolved from the seed alone — results are merged in
// scenario-index order and aggregates in sorted key order, so the
// report's canonical bytes — the report with the wall-clock timing
// fields zeroed — are byte-identical for any worker count, including per-round
// sharding via Scenario.SimWorkers (which maps to Config.Workers inside
// the synchronous simulator).
type (
	Scenario      = engine.Scenario
	Grid          = engine.Grid
	EngineOptions = engine.Options
)

// ChurnSpec declares mid-run membership change for a Scenario or a
// Grid axis: correct joiners and graceful leavers (dynamic ordering
// protocol), plus late-entering and mid-run-removed faulty nodes (any
// protocol). The concrete join/leave rounds are derived
// deterministically from the scenario seed, so churned runs remain
// pure values.
type ChurnSpec = engine.Churn

// Scenario protocol and adversary names (Scenario.Protocol,
// Scenario.Adversary); the full lists are in package
// idonly/internal/engine.
const (
	ProtoConsensus = engine.ProtoConsensus // Algorithm 3, id-only consensus
	ProtoDynamic   = engine.ProtoDynamic   // Algorithm 6, total ordering under churn
	AdvSilent      = engine.AdvSilent      // faulty nodes never send
	AdvSplit       = engine.AdvSplit       // protocol-specific value-targeting attack
)

// RunAll executes every scenario across a worker pool of
// opts.Workers goroutines (GOMAXPROCS when 0) and returns the
// aggregated report.
func RunAll(specs []Scenario, opts EngineOptions) *engine.Report {
	return engine.RunAll(specs, opts)
}

// PresetGrid returns one of the named benchmark grids: "small" (288
// scenarios), "medium" (864) or "large" (1920), each crossing a static
// column with a churn column.
func PresetGrid(name string) (Grid, error) { return engine.PresetGrid(name) }

// ParallelMap fans fn(0..n-1) across at most workers goroutines and
// returns the results in index order — the engine's deterministic
// parallel-map primitive, exported for custom sweeps.
func ParallelMap[T any](workers, n int, fn func(i int) T) []T {
	return engine.Map(workers, n, fn)
}

// ---------------------------------------------------------------------
// Content-addressed result store
// ---------------------------------------------------------------------

// OpenStore opens (creating if needed) the content-addressed result
// store rooted at dir: an append-only, crash-recovering segment log of
// scenario results keyed by ScenarioDigest, safe for concurrent readers
// alongside one appender. Opening truncates any torn or corrupt log
// tail back to the last intact record.
func OpenStore(dir string) (*store.Store, error) { return store.Open(dir) }

// ScenarioDigest returns the scenario's content address: a SHA-256
// (hex) over every field that influences the run's result bytes, taken
// after default resolution. Because scenarios are deterministic per
// seed, this digest addresses the scenario's Result before it runs.
func ScenarioDigest(s Scenario) string { return s.Digest() }

// CachedRunAll is RunAll behind the store: scenarios whose results are
// already stored are served from disk (zero simulator rounds), the
// rest are fanned through the worker pool and persisted as one batch.
// The returned report's canonical bytes are identical to what a cold
// RunAll of the same scenarios produces.
func CachedRunAll(st *store.Store, specs []Scenario, opts EngineOptions) (*engine.Report, store.RunStats, error) {
	return store.CachedRunAll(st, specs, opts)
}
