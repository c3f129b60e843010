package approx_test

import (
	"math"
	"testing"
	"testing/quick"

	"idonly/internal/adversary"
	"idonly/internal/core/approx"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

func rangeOf(values []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range values {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}

func TestReduceProperties(t *testing.T) {
	// Property (quick-checked): for any non-empty value multiset, the
	// reduced value lies within [min, max].
	f := func(raw []float64) bool {
		values := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				values = append(values, v)
			}
		}
		if len(values) == 0 {
			return true
		}
		out := approx.Reduce(values)
		lo, hi := rangeOf(values)
		return out >= lo && out <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestOneShotWithinCorrectRange(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		n, f := 10, 3
		rng := ids.NewRand(seed)
		all := ids.Sparse(rng, n)
		correct := all[:n-f]
		faulty := all[n-f:]
		var nodes []*approx.Iterated
		var inputs []float64
		for i, id := range correct {
			x := float64(i * 10)
			inputs = append(inputs, x)
			nodes = append(nodes, approx.NewIterated(id, x, 1))
		}
		adv := adversary.ApproxOutlier{Low: -1e9, High: 1e9, All: all}
		r := sim.NewRunner(sim.Config{MaxRounds: 3, StopWhenAllDecided: true}, nodes, faulty, adv)
		r.Run(nil)
		lo, hi := rangeOf(inputs)
		for _, nd := range nodes {
			if !nd.Decided() {
				t.Fatalf("seed %d: node %d undecided", seed, nd.ID())
			}
			if v := nd.Value(); v < lo || v > hi {
				t.Fatalf("seed %d: output %v outside correct input range [%v, %v]", seed, v, lo, hi)
			}
		}
	}
}

func TestOneShotRangeHalves(t *testing.T) {
	// Theorem 4: the output range is at most half the input range.
	for seed := uint64(0); seed < 20; seed++ {
		n, f := 13, 4
		rng := ids.NewRand(seed + 100)
		all := ids.Sparse(rng, n)
		correct := all[:n-f]
		faulty := all[n-f:]
		var nodes []*approx.Iterated
		var inputs []float64
		for i, id := range correct {
			x := rng.Float64()*100 + float64(i)
			inputs = append(inputs, x)
			nodes = append(nodes, approx.NewIterated(id, x, 1))
		}
		adv := adversary.ApproxOutlier{Low: -500, High: 500, All: all}
		r := sim.NewRunner(sim.Config{MaxRounds: 3, StopWhenAllDecided: true}, nodes, faulty, adv)
		r.Run(nil)
		var outputs []float64
		for _, nd := range nodes {
			outputs = append(outputs, nd.Value())
		}
		ilo, ihi := rangeOf(inputs)
		olo, ohi := rangeOf(outputs)
		if ihi > ilo && (ohi-olo) > (ihi-ilo)/2+1e-9 {
			t.Fatalf("seed %d: output range %v not ≤ half of input range %v", seed, ohi-olo, ihi-ilo)
		}
	}
}

func TestIteratedConvergesExponentially(t *testing.T) {
	n, f, iters := 10, 3, 12
	rng := ids.NewRand(4)
	all := ids.Sparse(rng, n)
	correct := all[:n-f]
	faulty := all[n-f:]
	var nodes []*approx.Iterated
	var inputs []float64
	for i, id := range correct {
		x := float64(i) * 128
		inputs = append(inputs, x)
		nodes = append(nodes, approx.NewIterated(id, x, iters))
	}
	adv := adversary.ApproxOutlier{Low: -1e6, High: 1e6, All: all}
	r := sim.NewRunner(sim.Config{MaxRounds: iters + 2, StopWhenAllDecided: true}, nodes, faulty, adv)
	r.Run(nil)
	ilo, ihi := rangeOf(inputs)
	prev := ihi - ilo
	for k := 0; k < iters; k++ {
		var vals []float64
		for _, nd := range nodes {
			vals = append(vals, nd.History[k])
		}
		lo, hi := rangeOf(vals)
		spread := hi - lo
		if spread > prev/2+1e-9 {
			t.Fatalf("iteration %d: spread %v did not halve from %v", k, spread, prev)
		}
		// every iterate stays within the original correct range
		if lo < ilo-1e-9 || hi > ihi+1e-9 {
			t.Fatalf("iteration %d: values [%v, %v] escaped input range [%v, %v]", k, lo, hi, ilo, ihi)
		}
		prev = spread
	}
	if prev > (ihi-ilo)/math.Pow(2, float64(iters))+1e-6 {
		t.Fatalf("final spread %v, want ≤ range/2^%d", prev, iters)
	}
}

func TestReduceSmallCounts(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{2, 4}, 3},
		{[]float64{0, 10, 20}, 10}, // trim 1 each side: keep {10}
		{[]float64{0, 10, 20, 30}, 15},
	}
	for _, c := range cases {
		if got := approx.Reduce(c.in); got != c.want {
			t.Errorf("Reduce(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestReduceEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reduce(nil) must panic")
		}
	}()
	approx.Reduce(nil)
}
