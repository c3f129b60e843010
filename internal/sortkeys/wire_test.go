package sortkeys

// Wire-union delegation: the monomorphized runner's bit-identity proof
// rests on each protocol's wire type rendering exactly the bytes of the
// boxed payload it wraps, on its Compare ordering as those bytes do
// (the typed runner orders by Compare alone), and on Wrap/Unwrap being
// a lossless round trip. The unions are enumerated from the wire side — every wire value
// that survives Unwrap then Wrap is a member, and its payload's type a
// member type — so a kind added to a union without samples here, or
// with a key that diverges from its payload's, fails this test.

import (
	"bytes"
	"cmp"
	"math"
	"reflect"
	"strings"
	"testing"

	"idonly/internal/core/consensus"
	"idonly/internal/core/dynamic"
	"idonly/internal/core/parallel"
	"idonly/internal/core/rbroadcast"
	"idonly/internal/core/ring"
	"idonly/internal/core/rotor"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// checkWireUnion finds the member types of codec's union among
// candidates, then checks every sample of a member type for a lossless
// round trip and a wire key equal to the payload's own key, and
// that every other payload — samples of other types, and junk — is
// rejected. noise, when not nil, names the samples of a member type
// that are nonetheless outside the union (a wrapper around an unknown
// payload) and the wire value Wrap must return for each, with ok
// false.
func checkWireUnion[M sim.WireMsg[M]](t *testing.T, name string, codec sim.Codec[M], candidates []M, noise func(p any) (M, bool)) {
	t.Helper()
	members := make(map[reflect.Type]int) // member type -> samples seen
	for _, w := range candidates {
		p := codec.Unwrap(w)
		if back, ok := codec.Wrap(p); ok && back == w {
			members[reflect.TypeOf(p)] = 0
		}
	}
	if len(members) == 0 {
		t.Fatalf("%s: no wire value survives an Unwrap/Wrap round trip", name)
	}
	junk := []any{nil, 17, "plain string", struct{ A int }{A: 4}}
	for _, s := range Samples() {
		junk = append(junk, s)
	}
	for _, p := range junk {
		w, ok := codec.Wrap(p)
		n, member := members[reflect.TypeOf(p)]
		if !member {
			if ok {
				t.Errorf("%s: Wrap(%#v) accepted a payload outside the union", name, p)
			}
			continue
		}
		members[reflect.TypeOf(p)] = n + 1
		if noise != nil {
			if want, isNoise := noise(p); isNoise {
				if ok || w != want {
					t.Errorf("%s: Wrap(%#v) = %#v, %v; want the noise value %#v, false", name, p, w, ok, want)
				}
				continue
			}
		}
		if !ok {
			t.Errorf("%s: Wrap(%#v) rejected a union member", name, p)
			continue
		}
		if got, want := string(w.AppendSortKey(nil)), string(sim.AppendKey(nil, p)); got != want {
			t.Errorf("%s: wire key %q != payload key %q for %#v", name, got, want, p)
		}
		if back := codec.Unwrap(w); back != p {
			t.Errorf("%s: round trip %#v -> %#v", name, p, back)
		}
	}
	for typ, n := range members {
		if n == 0 {
			t.Errorf("%s: union member %v has no values in Samples()", name, typ)
		}
	}
}

// everyKind is one wire value per possible Kind byte, other fields zero.
func everyKind[M any](mk func(kind uint8) M) []M {
	out := make([]M, 256)
	for k := range out {
		out[k] = mk(uint8(k))
	}
	return out
}

func TestWireUnionsDelegate(t *testing.T) {
	checkWireUnion(t, "rbroadcast", rbroadcast.WireCodec(),
		everyKind(func(k uint8) rbroadcast.Wire { return rbroadcast.Wire{Kind: k} }), nil)
	checkWireUnion(t, "consensus", consensus.WireCodec(),
		everyKind(func(k uint8) consensus.Wire { return consensus.Wire{Kind: k} }), nil)
	checkWireUnion(t, "ring", ring.WireCodec(), []ring.Probe{{}}, nil)
	pc := parallel.WireCodec()
	checkWireUnion(t, "parallel", pc,
		everyKind(func(k uint8) parallel.Wire { return parallel.Wire{Kind: k} }), nil)
	// A session kind is a member only around a member of parallel's
	// union, so the candidates repeat every kind around an init too.
	dc := dynamic.WireCodec()
	init, _ := pc.Wrap(rotor.Init{})
	candidates := everyKind(func(k uint8) dynamic.Wire { return dynamic.Wire{Kind: k} })
	candidates = append(candidates, everyKind(func(k uint8) dynamic.Wire {
		return dynamic.Wire{Kind: k, InKind: init.Kind}
	})...)
	noise := 0
	checkWireUnion(t, "dynamic", dc, candidates, func(p any) (dynamic.Wire, bool) {
		// Session noise: a session message around a payload outside
		// parallel's union. It keeps the tag — it is the wire value of
		// the same session around nothing — so its session's machine
		// still admits the sender.
		m, ok := p.(dynamic.SessMsg)
		if !ok {
			return dynamic.Wire{}, false
		}
		if _, inner := pc.Wrap(m.Inner); inner {
			return dynamic.Wire{}, false
		}
		noise++
		w, _ := dc.Wrap(dynamic.SessMsg{Sess: m.Sess})
		if back := dc.Unwrap(w); back != (dynamic.SessMsg{Sess: m.Sess}) {
			t.Errorf("dynamic: session noise of %#v unwraps to %#v, losing its tag", p, back)
		}
		return w, true
	})
	if noise == 0 {
		t.Error("dynamic: no sample is session noise")
	}

	// The pairs whose %v renderings used to tie.
	checkApart(t, pc, parallel.NoPref{ID: 4}, parallel.NoStrongPref{ID: 4})
	checkApart(t, pc, parallel.NoPref{ID: 9}, rotor.Echo{P: 9})
	checkApart(t, dc, dynamic.Present{}, dynamic.Absent{})
	for _, sess := range []int{3, -2} {
		checkApart(t, dc, dynamic.SessMsg{Sess: sess, Inner: parallel.NoPref{ID: 4}},
			dynamic.SessMsg{Sess: sess, Inner: parallel.NoStrongPref{ID: 4}})
	}
}

// checkApart requires two payloads of one union that agree field for
// field but differ in type to be distinct wire values with distinct
// keys.
func checkApart[M sim.WireMsg[M]](t *testing.T, codec sim.Codec[M], a, b any) {
	t.Helper()
	wa, okA := codec.Wrap(a)
	wb, okB := codec.Wrap(b)
	if !okA || !okB {
		t.Fatalf("%#v or %#v is outside the union", a, b)
	}
	if ka, kb := wa.AppendSortKey(nil), wb.AppendSortKey(nil); string(ka) == string(kb) {
		t.Errorf("%#v and %#v: both render key %q", a, b, ka)
	}
	if wa == wb {
		t.Errorf("%#v and %#v: one wire value for two payloads", a, b)
	}
}

// checkCompare holds one pair of wire values to the oracle: the sign
// of a.Compare(b) is that of bytes.Compare over their rendered keys,
// and b.Compare(a) is its negation.
func checkCompare[M sim.WireMsg[M]](t *testing.T, a, b M) {
	t.Helper()
	want := bytes.Compare(a.AppendSortKey(nil), b.AppendSortKey(nil))
	if got := cmp.Compare(a.Compare(b), 0); got != want {
		t.Fatalf("%#v.Compare(%#v) has sign %d, its keys compare %d", a, b, got, want)
	}
	if got := cmp.Compare(b.Compare(a), 0); got != -want {
		t.Fatalf("%#v.Compare(%#v) has sign %d, its keys compare %d", b, a, got, -want)
	}
}

// FuzzWireCompare holds every wire union's Compare to its rendered
// keys, over any kinds — members of the union or not — and any field
// values: the typed runner orders inboxes by Compare and renders no
// key, so the two may never disagree. The seeds straddle the one-byte
// uvarint (string lengths 127, 128 and 300) and cross lengths whose
// uvarints sort against their numbers (255 after 256, 200 after 300),
// pair −0 with +0, and pair kinds whose fields agree.
func FuzzWireCompare(f *testing.F) {
	s127, s128, s300 := strings.Repeat("m", 127), strings.Repeat("m", 128), strings.Repeat("a", 300)
	s200, s255, s256 := strings.Repeat("z", 200), strings.Repeat("z", 255), strings.Repeat("a", 256)
	negZero := math.Copysign(0, -1)
	const (
		uRing = iota
		uConsensus
		uRBroadcast
		uParallel
		uDynamic
	)
	for _, u := range []uint8{uRBroadcast, uParallel, uDynamic} {
		for _, ss := range [][2]string{{s127, s128}, {s128, s300}, {s127, s300}, {s300, "b"}, {s255, s256}, {s200, s300}} {
			// rbroadcast initial, parallel input and dynamic event (4%8)
			// all carry the string.
			f.Add(u, uint8(1), uint8(1), uint64(5), uint64(5), int64(2), int64(2), 0.0, 0.0, ss[0], ss[1], false, false)
			f.Add(u, uint8(4), uint8(4), uint64(5), uint64(5), int64(2), int64(2), 0.0, 0.0, ss[0], ss[1], true, true)
		}
	}
	f.Add(uint8(uConsensus), uint8(4), uint8(4), uint64(0), uint64(0), int64(0), int64(0), 0.0, negZero, "", "", false, false)
	f.Add(uint8(uConsensus), uint8(3), uint8(4), uint64(0), uint64(0), int64(0), int64(0), 1.5, 1.5, "", "", false, false)
	f.Add(uint8(uConsensus), uint8(0), uint8(6), uint64(0), uint64(0), int64(0), int64(0), -2.0, -2.0, "", "", false, false)
	f.Add(uint8(uRing), uint8(0), uint8(0), uint64(9), uint64(10), int64(0), int64(0), 0.0, 0.0, "", "", false, false)
	f.Add(uint8(uRBroadcast), uint8(1), uint8(3), uint64(7), uint64(7), int64(0), int64(0), 0.0, 0.0, "m", "m", false, false)
	f.Add(uint8(uParallel), uint8(2), uint8(5), uint64(9), uint64(9), int64(0), int64(0), 0.0, 0.0, "", "", false, false)
	f.Add(uint8(uParallel), uint8(5), uint8(7), uint64(4), uint64(4), int64(0), int64(0), 0.0, 0.0, "", "", false, false)
	f.Add(uint8(uParallel), uint8(3), uint8(3), uint64(4), uint64(4), int64(0), int64(0), 0.0, 0.0, "v", "v", false, true)
	f.Add(uint8(uDynamic), uint8(3), uint8(1), uint64(0), uint64(0), int64(0), int64(0), 0.0, 0.0, "", "", false, false)
	f.Add(uint8(uDynamic), uint8(6), uint8(5|1<<3), uint64(0), uint64(0), int64(-2), int64(-2), 0.0, 0.0, "", "", false, false)
	f.Add(uint8(uDynamic), uint8(5|4<<3), uint8(5|5<<3), uint64(4), uint64(4), int64(3), int64(3), 0.0, 0.0, "", "", false, false)
	f.Add(uint8(uDynamic), uint8(2), uint8(2), uint64(0), uint64(0), int64(-1), int64(1), 0.0, 0.0, "", "", false, false)
	f.Fuzz(func(t *testing.T, union, ka, kb uint8, ia, ib uint64, ra, rb int64, xa, xb float64, sa, sb string, ba, bb bool) {
		switch union % 5 {
		case uRing:
			checkCompare(t, ring.Probe{Min: ids.ID(ia)}, ring.Probe{Min: ids.ID(ib)})
		case uConsensus:
			checkCompare(t, consensus.Wire{Kind: ka, P: ids.ID(ia), X: xa}, consensus.Wire{Kind: kb, P: ids.ID(ib), X: xb})
		case uRBroadcast:
			checkCompare(t, rbroadcast.Wire{Kind: ka, M: sa, S: ids.ID(ia)}, rbroadcast.Wire{Kind: kb, M: sb, S: ids.ID(ib)})
		case uParallel:
			checkCompare(t, parallel.Wire{ID: parallel.PairID(ia), S: sa, Kind: ka, Bot: ba},
				parallel.Wire{ID: parallel.PairID(ib), S: sb, Kind: kb, Bot: bb})
		case uDynamic:
			// The low three bits pick the kind, the rest a session's inner
			// kind.
			checkCompare(t,
				dynamic.Wire{ID: parallel.PairID(ia), R: int(ra), S: sa, Kind: ka % 8, InKind: ka / 8, Bot: ba},
				dynamic.Wire{ID: parallel.PairID(ib), R: int(rb), S: sb, Kind: kb % 8, InKind: kb / 8, Bot: bb})
		}
	})
}

// TestWireCompareOrdersMembers runs every pair of members of each
// union — the samples the union accepts, and strings whose lengths
// straddle the one-byte uvarint — through the oracle.
func TestWireCompareOrdersMembers(t *testing.T) {
	samples := Samples()
	for _, n := range []int{127, 128, 200, 255, 256, 300} {
		s := strings.Repeat("m", n)
		samples = append(samples, rbroadcast.Echo{M: s, S: 1}, dynamic.EventMsg{M: s, R: 1},
			parallel.Input{ID: 1, X: parallel.V(s)}, dynamic.SessMsg{Sess: 1, Inner: parallel.Input{ID: 1, X: parallel.V(s)}})
	}
	allPairs(t, ring.WireCodec(), samples)
	allPairs(t, consensus.WireCodec(), samples)
	allPairs(t, rbroadcast.WireCodec(), samples)
	allPairs(t, parallel.WireCodec(), samples)
	allPairs(t, dynamic.WireCodec(), samples)
}

// allPairs checks every pair of the samples codec wraps.
func allPairs[M sim.WireMsg[M]](t *testing.T, codec sim.Codec[M], samples []sim.SortKeyer) {
	t.Helper()
	var members []M
	for _, s := range samples {
		if w, ok := codec.Wrap(s); ok {
			members = append(members, w)
		}
	}
	if len(members) < 2 {
		t.Fatalf("%T: %d members among the samples", members, len(members))
	}
	for _, a := range members {
		for _, b := range members {
			checkCompare(t, a, b)
		}
	}
}
