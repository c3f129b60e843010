package sortkeys

// Wire-union delegation: the monomorphized runner's bit-identity proof
// rests on each protocol's wire type rendering exactly the bytes of the
// boxed payload it wraps, and on Wrap/Unwrap being a lossless round
// trip. The unions are enumerated from the wire side — every wire value
// that survives Unwrap then Wrap is a member, and its payload's type a
// member type — so a kind added to a union without samples here, or
// with a key that diverges from fmt.Sprint, fails this test.

import (
	"fmt"
	"reflect"
	"testing"

	"idonly/internal/core/consensus"
	"idonly/internal/core/dynamic"
	"idonly/internal/core/parallel"
	"idonly/internal/core/rbroadcast"
	"idonly/internal/core/ring"
	"idonly/internal/core/rotor"
	"idonly/internal/sim"
)

// checkWireUnion finds the member types of codec's union among
// candidates, then checks every sample of a member type for a lossless
// round trip and a wire key equal to fmt.Sprint of the payload, and
// that every other payload — samples of other types, and junk — is
// rejected. noise, when not nil, names the samples of a member type
// that are nonetheless outside the union (a wrapper around an unknown
// payload) and the wire value Wrap must return for each, with ok
// false.
func checkWireUnion[M sim.WireMsg](t *testing.T, name string, codec sim.Codec[M], candidates []M, noise func(p any) (M, bool)) {
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
		if got, want := string(w.AppendSortKey(nil)), fmt.Sprint(codec.Unwrap(w)); got != want {
			t.Errorf("%s: wire key %q != fmt.Sprint %q for %#v", name, got, want, p)
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

	checkTie(t, pc, parallel.NoPref{ID: 4}, parallel.NoStrongPref{ID: 4})
	checkTie(t, pc, parallel.NoPref{ID: 9}, rotor.Echo{P: 9})
	checkTie(t, dc, dynamic.Present{}, dynamic.Absent{})
	for _, sess := range []int{3, -2} {
		checkTie(t, dc, dynamic.SessMsg{Sess: sess, Inner: parallel.NoPref{ID: 4}},
			dynamic.SessMsg{Sess: sess, Inner: parallel.NoStrongPref{ID: 4}})
	}
}

// checkTie requires two payloads of one union to render the same key
// bytes, as their boxed forms do, and to be distinct wire values, so
// the duplicate filter — which keys on values — keeps both.
func checkTie[M sim.WireMsg](t *testing.T, codec sim.Codec[M], a, b any) {
	t.Helper()
	wa, okA := codec.Wrap(a)
	wb, okB := codec.Wrap(b)
	if !okA || !okB {
		t.Fatalf("%#v or %#v is outside the union", a, b)
	}
	if ka, kb := wa.AppendSortKey(nil), wb.AppendSortKey(nil); string(ka) != string(kb) {
		t.Errorf("%#v and %#v: keys %q and %q no longer tie", a, b, ka, kb)
	}
	if wa == wb {
		t.Errorf("%#v and %#v: one wire value for two payloads", a, b)
	}
}
