// Package sortkeys is the registry of every payload type implementing
// sim.SortKeyer, as sample values. It exists for the tests that hold
// every type to the sort-key contract (internal/sim's sortkey.go:
// injective across types, one tag per type, numeric order) and check
// every wire union's members and its Compare against the rendered
// keys, across all protocol packages at once —
// the packages themselves cannot host those tests without importing
// each other.
package sortkeys

import (
	"math"

	"idonly/internal/baseline"
	"idonly/internal/core/approx"
	"idonly/internal/core/consensus"
	"idonly/internal/core/dynamic"
	"idonly/internal/core/parallel"
	"idonly/internal/core/rbroadcast"
	"idonly/internal/core/ring"
	"idonly/internal/core/rotor"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// floats are the float64 edge values every float-carrying payload is
// sampled with, −0 beside +0 (equal values, so equal keys). NaN is
// deliberately absent: the sort-key contract excludes it (no two NaNs
// are equal, yet they can share a key).
var floats = []float64{0, 1, -1, 0.5, -2.75, 1e21, 1e-7, 123456.789,
	math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}

// strs stress the string fields: empties, spaces, braces, digits in
// ambiguous positions, bytes that look like a length prefix, non-ASCII
// and non-UTF-8 bytes.
var strs = []string{"", "m", "a b", "x 7", "{", "}", "{1 2}", "12 34", "\x01m", "\x00", "évènement", "\xff\xfe"}

// someIDs cover the id extremes.
var someIDs = []ids.ID{0, 1, 7, 1 << 40, math.MaxUint64}

// Samples returns representative values of every registered payload
// type, including wrapper compositions and edge-case field values.
func Samples() []sim.SortKeyer {
	var out []sim.SortKeyer

	out = append(out, rotor.Init{})
	for _, id := range someIDs {
		out = append(out, rotor.Echo{P: id})
	}
	for _, x := range floats {
		out = append(out, rotor.Opinion{X: x},
			consensus.Input{X: x}, consensus.Prefer{X: x}, consensus.StrongPrefer{X: x},
			approx.Value{X: x},
			baseline.KInput{X: x}, baseline.KPrefer{X: x}, baseline.KStrong{X: x}, baseline.KKing{X: x},
			baseline.AValue{X: x})
	}
	out = append(out, rbroadcast.Present{})
	for _, s := range strs {
		for _, id := range someIDs {
			out = append(out,
				rbroadcast.Initial{M: s, S: id}, rbroadcast.Echo{M: s, S: id},
				baseline.STInitial{M: s, S: id}, baseline.STEcho{M: s, S: id})
		}
		out = append(out, dynamic.EventMsg{M: s, R: -3}, dynamic.EventMsg{M: s, R: 41})
	}

	vals := []parallel.Val{parallel.Bot, parallel.V(""), parallel.V("a b"), parallel.V("{x}"), {S: "s", Bot: true}}
	for _, v := range vals {
		for _, p := range []parallel.PairID{0, 1, 1 << 40} {
			out = append(out,
				parallel.Input{ID: p, X: v}, parallel.Prefer{ID: p, X: v},
				parallel.StrongPrefer{ID: p, X: v}, parallel.Opinion{ID: p, X: v},
				parallel.NoPref{ID: p}, parallel.NoStrongPref{ID: p})
		}
	}

	for _, id := range someIDs {
		out = append(out, ring.Probe{Min: id})
	}

	out = append(out, dynamic.Present{}, dynamic.Absent{},
		dynamic.Ack{R: 0}, dynamic.Ack{R: -1}, dynamic.Ack{R: 99})

	// SessMsg compositions: every session-capable inner type, plus a nil
	// inner, an inner outside parallel's union and a nested wrapper.
	inners := []any{
		rotor.Init{}, rotor.Echo{P: 9}, rotor.Opinion{X: 2.5},
		parallel.Input{ID: 4, X: parallel.V("v")}, parallel.Prefer{ID: 4, X: parallel.Bot},
		parallel.NoPref{ID: 4}, parallel.StrongPrefer{ID: 4, X: parallel.V("w")},
		parallel.NoStrongPref{ID: 4}, parallel.Opinion{ID: 4, X: parallel.V("")},
		nil, dynamic.SessMsg{Sess: 2, Inner: rotor.Init{}},
	}
	for _, in := range inners {
		out = append(out, dynamic.SessMsg{Sess: 3, Inner: in}, dynamic.SessMsg{Sess: -2, Inner: in})
	}
	return out
}
