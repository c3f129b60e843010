package approx_test

import (
	"math"
	"testing"

	"idonly/internal/core/approx"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// Section XI of the paper observes that Lemmas 12 and 13 hold per round
// even when participants enter and leave (subject to n > 3f in every
// round): the range of the *present* correct values still halves, while
// newly entering values can widen it. These tests run Algorithm 4's
// iterated form under churn.

// leavingIterated wraps Iterated with a departure round.
type leavingIterated struct {
	*approx.Iterated
	leaveAt int
	left    bool
}

func (l *leavingIterated) Step(round int, inbox []sim.Message) []sim.Send {
	if round >= l.leaveAt {
		l.left = true
		return nil
	}
	return l.Iterated.Step(round, inbox)
}

func (l *leavingIterated) Left() bool { return l.left }

func TestChurnJoinerPullsTowardCluster(t *testing.T) {
	// An established cluster is tightly agreed around ~50. A joiner with
	// a wildly different value (1000) enters mid-run: each iteration the
	// cluster's trim discards the outlier, while the joiner's own reduce
	// pulls it toward the cluster (§XII: "the new node can execute
	// Algorithm 4 ... to get closer to the value of most of the nodes").
	rng := ids.NewRand(31)
	all := ids.Sparse(rng, 8)
	iters := 14
	var cluster []*approx.Iterated
	for i, id := range all[:7] {
		cluster = append(cluster, approx.NewIterated(id, 50+float64(i), iters))
	}
	r := sim.NewRunner(sim.Config{MaxRounds: iters, StopWhenAllDecided: true}, cluster, nil, nil)
	joiner := approx.NewIterated(all[7], 1000, iters-4)
	r.ScheduleJoin(5, joiner)
	r.Run(nil)

	// The cluster must stay within its own initial range the whole time:
	// 7 established values vs 1 newcomer — the newcomer is within the
	// ⌊8/3⌋ = 2 trimmed extremes, so it cannot drag anyone out.
	for _, nd := range cluster {
		if nd.Value() < 50 || nd.Value() > 56 {
			t.Fatalf("cluster node pulled to %v by the joiner", nd.Value())
		}
	}
	// The joiner must have moved substantially toward the cluster.
	if joiner.Value() > 100 {
		t.Fatalf("joiner stayed at %v, expected convergence toward ~50", joiner.Value())
	}
}

func TestChurnLeaverDoesNotBreakContraction(t *testing.T) {
	rng := ids.NewRand(33)
	all := ids.Sparse(rng, 8)
	iters := 12
	var stay []*approx.Iterated
	var procs []sim.Process
	for i, id := range all[:7] {
		nd := approx.NewIterated(id, float64(i)*32, iters)
		stay = append(stay, nd)
		procs = append(procs, nd)
	}
	leaver := &leavingIterated{Iterated: approx.NewIterated(all[7], 500, iters), leaveAt: 4}
	procs = append(procs, leaver)
	r := sim.NewRunner(sim.Config{MaxRounds: iters, StopWhenAllDecided: true}, procs, nil, nil)
	r.Run(nil)

	// After the departure, the remaining nodes keep halving their spread.
	for k := 5; k < iters-1; k++ {
		var prev, cur []float64
		for _, nd := range stay {
			prev = append(prev, nd.History[k-1])
			cur = append(cur, nd.History[k])
		}
		if s, p := spreadT(cur), spreadT(prev); s > p/2+1e-9 {
			t.Fatalf("iteration %d after leave: spread %v > half of %v", k, s, p)
		}
	}
}

func spreadT(vals []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return hi - lo
}

func TestChurnContinuousJoinsStayInUnion(t *testing.T) {
	// Nodes join every few rounds with fresh values; Lemma 12 per round:
	// every output stays within the union of the values present.
	rng := ids.NewRand(35)
	all := ids.Sparse(rng, 12)
	iters := 16
	var nodes []*approx.Iterated
	for i, id := range all[:6] {
		nodes = append(nodes, approx.NewIterated(id, float64(i)*10, iters))
	}
	r := sim.NewRunner(sim.Config{MaxRounds: iters, StopWhenAllDecided: true}, nodes, nil, nil)
	lo, hi := 0.0, 50.0
	for j, id := range all[6:10] {
		x := float64(100 + 50*j)
		hi = math.Max(hi, x)
		nd := approx.NewIterated(id, x, iters-3-2*j)
		nodes = append(nodes, nd)
		r.ScheduleJoin(3+2*j, nd)
	}
	r.Run(nil)
	for _, nd := range nodes {
		if nd.Value() < lo-1e-9 || nd.Value() > hi+1e-9 {
			t.Fatalf("value %v escaped the union range [%v, %v]", nd.Value(), lo, hi)
		}
	}
}
