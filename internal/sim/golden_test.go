package sim_test

// Golden-trace equality: every strategy of simtest.Strategies — the §IV
// model and the core over boxed payloads and over the protocol's wire
// union — must reproduce the exact schedule of the original map-based
// delivery path, alone and with copies of itself running at once, and
// the model's Metrics. The digests below were generated with the
// pre-refactor runner (PR 1); every refactor of the delivery path must
// keep them byte-identical. The digest covers the full observer trace
// (every send of every node in every round), the final node outputs and
// the deterministic metrics fields.

import (
	"fmt"
	"reflect"
	"testing"

	"idonly/internal/adversary"
	"idonly/internal/core/dynamic"
	"idonly/internal/core/ring"
	"idonly/internal/ids"
	"idonly/internal/sim"
	"idonly/internal/simtest"
)

// goldenTraces are the protocol workloads' pre-refactor digests.
var goldenTraces = []simtest.Row{
	{Workload: rbroadcastWorkload, Want: "1bad0a01badaf2ce"},
	{Workload: consensusWorkload, Want: "ec3f075f199dedbe"},
	{Workload: approxWorkload, Want: "7d219c58c70685ee"},
	{Workload: rotorWorkload, Want: "5cc3812bca1d2cdf"},
	{Workload: parallelWorkload, Want: "c682e4c6b2f34794"},
	{Workload: dynamicWorkload, Want: "49ac5e06f84637ce"},
	{Workload: ring1024Workload, Want: "a10b0d0d4631b28e"},
}

// ring1000 is the ring flood at n = 1000 with no faulty nodes, the
// sim-level half of the engine's large-n smoke test. No digest is
// pinned for it: every strategy is held to the model's.
var ring1000 = simtest.Row{Workload: simtest.Workload{Name: "ring1000", MaxRounds: ring.Horizon(1000) + 2, StopDecided: true,
	Typed: ring1024Workload.Typed, Sys: func(simtest.Relabel) simtest.System {
		all := ids.Sparse(ids.NewRand(21), 1000)
		var procs []sim.Process
		for i, id := range all {
			procs = append(procs, ring.New(id, ring.Successors(all, i), ring.Horizon(1000)))
		}
		return simtest.System{Procs: procs}
	}}}

func TestGoldenTraces(t *testing.T) { simtest.Matrix(t, append(goldenTraces, ring1000), false) }

// TestInstantiationsShareMetrics holds the typed instantiation of every
// golden system to the boxed one's Metrics field for field, InboxGrows
// included: there is one presize policy, so the two must grow their
// buffers alike. The matrix checks the same through whichever core
// strategy of a row runs first; this test pairs the two directly, so
// the check holds under any -run filter.
func TestInstantiationsShareMetrics(t *testing.T) {
	for _, row := range append(goldenTraces, goldenChurn...) {
		if row.Typed == nil {
			continue
		}
		t.Run(row.Name, func(t *testing.T) {
			cfg := row.Config(nil)
			typed, boxed := row.Typed(cfg, row.Sys(simtest.Same)), simtest.Boxed(cfg, row.Sys(simtest.Same))
			if !reflect.DeepEqual(typed, boxed) {
				t.Fatalf("metrics differ:\ntyped %+v\nboxed %+v", typed, boxed)
			}
		})
	}
}

// churnHeavySystem is a churn-saturated dynamic-ordering system — three
// staggered correct joiners, two graceful leavers, a late faulty join
// and two mid-run faulty leaves, under an event-equivocating
// adversary.
func churnHeavySystem(g simtest.Relabel) simtest.System {
	rng := ids.NewRand(77)
	all := sparse(g, rng, 12)
	correct := all[:7]
	faulty := all[7:9] // present from round 1
	lateFaulty := all[9]
	joinerIDs := all[10:]

	s := simtest.System{Faulty: faulty, Adv: adversary.DynEquivEvent{All: all[:9], Every: 2},
		FaultyJoins:  map[int]ids.ID{8: lateFaulty},
		FaultyLeaves: map[int]ids.ID{25: faulty[0], 35: lateFaulty}}
	for i, id := range correct {
		witness := make(map[int][]string)
		for r := 1; r <= 60; r++ {
			if r%len(correct) == i {
				witness[r] = []string{fmt.Sprintf("ev-%d-%d", i, r)}
			}
		}
		leaveAt := 0
		switch i {
		case len(correct) - 1:
			leaveAt = 12
		case len(correct) - 2:
			leaveAt = 20
		}
		s.Procs = append(s.Procs, dynamic.New(dynamic.Config{ID: id, Founders: all[:9], Witness: witness, LeaveAt: leaveAt}))
	}
	for i, id := range joinerIDs {
		s.Joins = append(s.Joins, simtest.Join{Round: 5 + 5*i, Proc: dynamic.New(dynamic.Config{ID: id})})
	}
	return s
}

// churnConsensusSystem is the golden consensus system with its faulty
// membership churned: one of the four faulty nodes is held back and
// joins at round 3, a founding faulty node leaves after round 4 and
// the late one after round 7 (the run takes 12 rounds).
func churnConsensusSystem(g simtest.Relabel) simtest.System {
	s := consensusSystem(g)
	early, late := s.Faulty[:3], s.Faulty[3]
	s.Faulty = early
	s.FaultyJoins = map[int]ids.ID{3: late}
	s.FaultyLeaves = map[int]ids.ID{4: early[0], 7: late}
	return s
}

// The churn schedules are pinned: joins and leaves, correct and
// faulty, must replay bit-identically on every strategy, alone and
// alongside copies of the same run. The dynamic
// digest was generated when churn landed; the consensus one on the
// boxed Runner of the last commit that still had a second delivery
// plane, whose wire-union runner had no churn.
var goldenChurn = []simtest.Row{
	{Workload: simtest.Workload{Name: "churn-dynamic", MaxRounds: 60, Sys: churnHeavySystem, Typed: dynamicWorkload.Typed, Gauges: true}, Want: "94493272edd150e2"},
	{Workload: simtest.Workload{Name: "churn-consensus", MaxRounds: 200, StopDecided: true, Sys: churnConsensusSystem, Typed: consensusWorkload.Typed, Gauges: true}, Want: "82e6cdb6213a32f9"},
}

func TestGoldenChurnSchedule(t *testing.T) { simtest.Matrix(t, goldenChurn, false) }
