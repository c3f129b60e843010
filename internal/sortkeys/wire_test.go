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
	"idonly/internal/core/rbroadcast"
	"idonly/internal/core/ring"
	"idonly/internal/sim"
)

// checkWireUnion finds the member types of codec's union among
// candidates, then checks every sample of a member type for a lossless
// round trip and a wire key equal to fmt.Sprint of the payload, and
// that every other payload — samples of other types, and junk — is
// rejected.
func checkWireUnion[M sim.WireMsg](t *testing.T, name string, codec sim.Codec[M], candidates []M) {
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
		everyKind(func(k uint8) rbroadcast.Wire { return rbroadcast.Wire{Kind: k} }))
	checkWireUnion(t, "consensus", consensus.WireCodec(),
		everyKind(func(k uint8) consensus.Wire { return consensus.Wire{Kind: k} }))
	checkWireUnion(t, "ring", ring.WireCodec(), []ring.Probe{{}})
}
