package sim_test

// Golden-trace equality: the runner core must reproduce the exact
// schedule of the original map-based delivery path. The digests below
// were generated with the pre-refactor runner (PR 1); every refactor
// of the delivery path must keep them byte-identical, for every
// protocol, on every instantiation of the core the protocol has (boxed
// payloads always, its wire union where one exists), alone and with
// copies of itself running at once. The digest covers the full
// observer trace (every send of every node in every round), the final
// node outputs and the deterministic metrics fields.

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"
	"sync"
	"testing"

	"idonly/internal/adversary"
	"idonly/internal/core/dynamic"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// digestRun plays one workload and returns an FNV-1a 64 digest of its
// observer trace, final outputs (in construction order) and metrics —
// the decided rounds, or the churn gauges for a workload that says so
// (the churn schedules were pinned with the one, the protocol traces
// with the other). Metrics.InboxGrows-style allocation diagnostics
// must not be included: the digest pins the schedule, not the
// allocator.
func digestRun(w workload, play playFn) string {
	h := fnv.New64a()
	s := w.sys(same)
	m := play(w.config(func(round int, from ids.ID, sends []sim.Send) {
		fmt.Fprintf(h, "r%d %d %v\n", round, from, sends)
	}), s)
	for _, p := range s.all() {
		fmt.Fprintf(h, "out %d %v\n", p.ID(), p.Output())
	}
	fmt.Fprintf(h, "rounds=%d delivered=%d dropped=%d byround=%v",
		m.Rounds, m.MessagesDelivered, m.MessagesDropped, m.ByRound)
	if w.gauges {
		fmt.Fprintf(h, " joins=%d leaves=%d peak=%d min=%d\n", m.Joins, m.Leaves, m.PeakNodes, m.MinNodes)
		return fmt.Sprintf("%016x", h.Sum64())
	}
	fmt.Fprintln(h)
	decided := make([]ids.ID, 0, len(m.DecidedRound))
	for id := range m.DecidedRound {
		decided = append(decided, id)
	}
	sort.Slice(decided, func(i, j int) bool { return decided[i] < decided[j] })
	for _, id := range decided {
		fmt.Fprintf(h, "decided %d r%d\n", id, m.DecidedRound[id])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// workerCounts is the digest tests' workers column: how many copies
// of the same simulation run at once, each on its own goroutine, as a
// sweep's worker pool runs scenarios. Every copy must reproduce the
// pinned digest, so two runs share no mutable state; under -race the
// column also reports any unsynchronised access between them.
var workerCounts = []int{1, 4}

// concurrently calls run(0) … run(workers-1) on goroutines of their
// own and waits for all of them.
func concurrently(workers int, run func(i int)) {
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(i)
		}()
	}
	wg.Wait()
}

// digestRuns plays workers copies of w at once and returns each
// copy's digest.
func digestRuns(w workload, workers int, play playFn) []string {
	got := make([]string, workers)
	concurrently(workers, func(i int) { got[i] = digestRun(w, play) })
	return got
}

// golden pins a workload's digest; the schedule is frozen.
type golden struct {
	workload
	want string
}

// goldenTraces are the protocol workloads' pre-refactor digests.
var goldenTraces = []golden{
	{rbroadcastWorkload, "1bad0a01badaf2ce"},
	{consensusWorkload, "ec3f075f199dedbe"},
	{approxWorkload, "7d219c58c70685ee"},
	{rotorWorkload, "5cc3812bca1d2cdf"},
	{parallelWorkload, "c682e4c6b2f34794"},
	{dynamicWorkload, "49ac5e06f84637ce"},
	{ring1024Workload, "a10b0d0d4631b28e"},
}

// TestInstantiationsShareMetrics holds the typed instantiation of every
// golden system to the boxed one's Metrics field for field, InboxGrows
// included: the digests pin trace and outputs, and there is one
// presize policy, so the two must also grow their buffers alike.
func TestInstantiationsShareMetrics(t *testing.T) {
	for _, tc := range append(goldenTraces, goldenChurn...) {
		if tc.typed == nil {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.config(nil)
			if typed, ref := tc.typed(cfg, tc.sys(same)), boxed(cfg, tc.sys(same)); !reflect.DeepEqual(typed, ref) {
				t.Fatalf("metrics differ:\ntyped %+v\nboxed %+v", typed, ref)
			}
		})
	}
}

func TestGoldenTraces(t *testing.T) {
	for _, tc := range goldenTraces {
		for name, play := range tc.instantiations() {
			for _, workers := range workerCounts {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", tc.name, name, workers), func(t *testing.T) {
					for i, got := range digestRuns(tc.workload, workers, play) {
						if got != tc.want {
							t.Fatalf("schedule changed in copy %d: digest %s, golden %s", i, got, tc.want)
						}
					}
				})
			}
		}
	}
}

// churnHeavySystem is a churn-saturated dynamic-ordering system — three
// staggered correct joiners, two graceful leavers, a late faulty join
// and two mid-run faulty removals, under an event-equivocating
// adversary.
func churnHeavySystem(g relabel) system {
	rng := ids.NewRand(77)
	all := sparse(g, rng, 12)
	correct := all[:7]
	faulty := all[7:9] // present from round 1
	lateFaulty := all[9]
	joinerIDs := all[10:]

	s := system{faulty: faulty, adv: adversary.DynEquivEvent{All: all[:9], Every: 2},
		fjoins:   map[int]ids.ID{8: lateFaulty},
		removals: map[int]ids.ID{25: faulty[0], 35: lateFaulty}}
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
		s.procs = append(s.procs, dynamic.New(dynamic.Config{ID: id, Founders: all[:9], Witness: witness, LeaveAt: leaveAt}))
	}
	for i, id := range joinerIDs {
		s.joins = append(s.joins, join{5 + 5*i, dynamic.New(dynamic.Config{ID: id})})
	}
	return s
}

// churnConsensusSystem is the golden consensus system with its faulty
// membership churned: one of the four faulty nodes is held back and
// joins at round 3, a founding faulty node is removed after round 4
// and the late one after round 7 (the run takes 12 rounds).
func churnConsensusSystem(g relabel) system {
	s := consensusSystem(g)
	early, late := s.faulty[:3], s.faulty[3]
	s.faulty = early
	s.fjoins = map[int]ids.ID{3: late}
	s.removals = map[int]ids.ID{4: early[0], 7: late}
	return s
}

// The churn schedules are pinned: joins, leaves and faulty removals
// must replay bit-identically on every instantiation, alone and
// alongside copies of the same run. The dynamic
// digest was generated when churn landed; the consensus one on the
// boxed Runner of the last commit that still had a second delivery
// plane, whose wire-union runner had no churn.
var goldenChurn = []golden{
	{workload{"churn-dynamic", 60, false, churnHeavySystem, dynamicWorkload.typed, true}, "94493272edd150e2"},
	{workload{"churn-consensus", 200, true, churnConsensusSystem, consensusWorkload.typed, true}, "82e6cdb6213a32f9"},
}

func TestGoldenChurnSchedule(t *testing.T) {
	for _, tc := range goldenChurn {
		for name, play := range tc.instantiations() {
			for _, workers := range workerCounts {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", tc.name, name, workers), func(t *testing.T) {
					for i, got := range digestRuns(tc.workload, workers, play) {
						if got != tc.want {
							t.Fatalf("churn schedule changed in copy %d: digest %s, golden %s", i, got, tc.want)
						}
					}
				})
			}
		}
	}
}
