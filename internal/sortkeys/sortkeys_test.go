package sortkeys

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

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

// key renders a payload's sort key.
func key(s sim.SortKeyer) string { return string(s.AppendSortKey(nil)) }

// checkPair holds two payloads to the contract's pairwise halves: equal
// keys exactly for equal values (injectivity across types), and one tag
// exactly for one type (unique tags).
func checkPair(t *testing.T, a, b sim.SortKeyer) {
	t.Helper()
	ka, kb := key(a), key(b)
	if (ka == kb) != (a == b) {
		t.Fatalf("%#v and %#v: keys %q and %q, values equal=%v", a, b, ka, kb, a == b)
	}
	if sameType := fmt.Sprintf("%T", a) == fmt.Sprintf("%T", b); (ka[0] == kb[0]) != sameType {
		t.Fatalf("%T (tag %#x) and %T (tag %#x): one tag must name exactly one type", a, ka[0], b, kb[0])
	}
}

// The numeric fields' probes: one payload per kind of number, built
// around a single field. A probe's keys must sort as its numbers do.
var (
	uintProbes = map[string]func(uint64) sim.SortKeyer{
		"rotor.Echo":         func(v uint64) sim.SortKeyer { return rotor.Echo{P: ids.ID(v)} },
		"ring.Probe":         func(v uint64) sim.SortKeyer { return ring.Probe{Min: ids.ID(v)} },
		"rbroadcast.Initial": func(v uint64) sim.SortKeyer { return rbroadcast.Initial{M: "m", S: ids.ID(v)} },
		"parallel.NoPref":    func(v uint64) sim.SortKeyer { return parallel.NoPref{ID: parallel.PairID(v)} },
		"parallel.Input": func(v uint64) sim.SortKeyer {
			return parallel.Input{ID: parallel.PairID(v), X: parallel.V("x")}
		},
	}
	intProbes = map[string]func(int64) sim.SortKeyer{
		"dynamic.Ack":      func(v int64) sim.SortKeyer { return dynamic.Ack{R: int(v)} },
		"dynamic.EventMsg": func(v int64) sim.SortKeyer { return dynamic.EventMsg{M: "e", R: int(v)} },
		"dynamic.SessMsg": func(v int64) sim.SortKeyer {
			return dynamic.SessMsg{Sess: int(v), Inner: rotor.Init{}}
		},
	}
	floatProbes = map[string]func(float64) sim.SortKeyer{
		"rotor.Opinion":  func(v float64) sim.SortKeyer { return rotor.Opinion{X: v} },
		"approx.Value":   func(v float64) sim.SortKeyer { return approx.Value{X: v} },
		"baseline.KKing": func(v float64) sim.SortKeyer { return baseline.KKing{X: v} },
	}
)

// checkOrder requires a probe's keys for x and y to compare as x and y
// do.
func checkOrder[N cmp.Ordered](t *testing.T, name string, probe func(N) sim.SortKeyer, x, y N) {
	t.Helper()
	if got, want := bytes.Compare(probe(x).AppendSortKey(nil), probe(y).AppendSortKey(nil)), cmp.Compare(x, y); got != want {
		t.Fatalf("%s: keys of %v and %v compare %d, the numbers %d", name, x, y, got, want)
	}
}

// checkNumbers runs every probe over one pair of numbers.
func checkNumbers(t *testing.T, u, v uint64) {
	t.Helper()
	for name, p := range uintProbes {
		checkOrder(t, name, p, u, v)
	}
	for name, p := range intProbes {
		checkOrder(t, name, p, int64(u), int64(v))
	}
	x, y := math.Float64frombits(u), math.Float64frombits(v)
	if math.IsNaN(x) || math.IsNaN(y) {
		return // outside the contract
	}
	for name, p := range floatProbes {
		checkOrder(t, name, p, x, y)
	}
}

// TestSortKeyContract holds every registered sample to the contract:
// keys are injective across types (and equal values, −0 and +0
// included, render equal keys), every type has a tag no other type
// shares, and ids, ints and floats sort by number.
func TestSortKeyContract(t *testing.T) {
	byKey := make(map[string]sim.SortKeyer)
	byValue := make(map[sim.SortKeyer]string)
	tagOf := make(map[string]byte)  // type -> tag
	typeOf := make(map[byte]string) // tag -> type
	prefix := []byte("prefix|")
	for _, s := range Samples() {
		k := key(s)
		if got := s.AppendSortKey(append([]byte(nil), prefix...)); string(got) != string(prefix)+k {
			t.Errorf("%T: AppendSortKey clobbered dst: %q", s, got)
		}
		if prev, ok := byKey[k]; ok && prev != s {
			t.Errorf("distinct values %#v and %#v share key %q", prev, s, k)
		}
		if prev, ok := byValue[s]; ok && prev != k {
			t.Errorf("equal values %#v render %q and %q", s, prev, k)
		}
		byKey[k], byValue[s] = s, k
		typ := fmt.Sprintf("%T", s)
		if tag, ok := tagOf[typ]; ok && tag != k[0] {
			t.Errorf("%s renders tags %#x and %#x", typ, tag, k[0])
		}
		if other, ok := typeOf[k[0]]; ok && other != typ {
			t.Errorf("tag %#x names both %s and %s", k[0], other, typ)
		}
		tagOf[typ], typeOf[k[0]] = k[0], typ
	}

	var nums []uint64
	for _, id := range someIDs {
		nums = append(nums, uint64(id))
	}
	for _, i := range []int64{math.MinInt64, -3, -1, 1 << 40} {
		nums = append(nums, uint64(i))
	}
	for _, f := range floats {
		nums = append(nums, math.Float64bits(f))
	}
	for _, u := range nums {
		for _, v := range nums {
			checkNumbers(t, u, v)
		}
	}
}

// typeIdent names a payload's concrete type, the unit within which the
// sort-key contract makes key bytes and values agree. The SessMsg
// wrapper includes its inner payload's key, so its identity includes
// the inner type.
func typeIdent(p any) string {
	if w, ok := p.(dynamic.SessMsg); ok {
		return "dynamic.SessMsg[" + typeIdent(w.Inner) + "]"
	}
	return fmt.Sprintf("%T", p)
}

// TestSameTypeInjective: within one concrete type, equal key bytes must
// mean equal payload values — the property that lets the duplicate
// filter key on values. Checked pairwise over the sample set.
func TestSameTypeInjective(t *testing.T) {
	byType := make(map[string][]sim.SortKeyer)
	for _, s := range Samples() {
		ident := typeIdent(s)
		byType[ident] = append(byType[ident], s)
	}
	for ident, group := range byType {
		keys := make([]string, len(group))
		for i, s := range group {
			keys[i] = key(s)
		}
		for i := range group {
			for j := i + 1; j < len(group); j++ {
				if keys[i] == keys[j] && group[i] != group[j] {
					t.Errorf("%s: distinct values %#v and %#v share key %q",
						ident, group[i], group[j], keys[i])
				}
			}
		}
	}
}

// fuzzReader doles out primitive field values from the fuzz input.
type fuzzReader struct {
	data []byte
	off  int
}

func (r *fuzzReader) bytes(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		if r.off < len(r.data) {
			out[i] = r.data[r.off]
			r.off++
		}
	}
	return out
}

func (r *fuzzReader) u64() uint64 { return binary.LittleEndian.Uint64(r.bytes(8)) }
func (r *fuzzReader) id() ids.ID  { return ids.ID(r.u64()) }
func (r *fuzzReader) i() int      { return int(int64(r.u64())) }
func (r *fuzzReader) b() bool     { return r.bytes(1)[0]&1 == 1 }
func (r *fuzzReader) str() string { return string(r.bytes(int(r.bytes(1)[0]) % 12)) }
func (r *fuzzReader) pair() parallel.PairID {
	return parallel.PairID(r.u64())
}
func (r *fuzzReader) f64() float64 {
	f := math.Float64frombits(r.u64())
	if math.IsNaN(f) {
		return 0 // NaN is outside the sort-key contract
	}
	return f
}
func (r *fuzzReader) val() parallel.Val {
	return parallel.Val{S: r.str(), Bot: r.b()}
}

// build constructs one payload of the type selected by kind from the
// reader's bytes: every registered type, a session around any of the
// first 15.
func build(kind byte, r *fuzzReader) sim.SortKeyer {
	switch kind % 30 {
	case 0:
		return rotor.Init{}
	case 1:
		return rotor.Echo{P: r.id()}
	case 2:
		return rotor.Opinion{X: r.f64()}
	case 3:
		return rbroadcast.Initial{M: r.str(), S: r.id()}
	case 4:
		return rbroadcast.Echo{M: r.str(), S: r.id()}
	case 5:
		return consensus.Input{X: r.f64()}
	case 6:
		return consensus.Prefer{X: r.f64()}
	case 7:
		return consensus.StrongPrefer{X: r.f64()}
	case 8:
		return approx.Value{X: r.f64()}
	case 9:
		return parallel.Input{ID: r.pair(), X: r.val()}
	case 10:
		return parallel.Prefer{ID: r.pair(), X: r.val()}
	case 11:
		return parallel.NoPref{ID: r.pair()}
	case 12:
		return parallel.StrongPrefer{ID: r.pair(), X: r.val()}
	case 13:
		return parallel.NoStrongPref{ID: r.pair()}
	case 14:
		return parallel.Opinion{ID: r.pair(), X: r.val()}
	case 15:
		return dynamic.Ack{R: r.i()}
	case 16:
		return dynamic.EventMsg{M: r.str(), R: r.i()}
	case 17:
		return dynamic.SessMsg{Sess: r.i(), Inner: build(r.bytes(1)[0]%15, r)}
	case 18:
		return baseline.STInitial{M: r.str(), S: r.id()}
	case 19:
		return baseline.STEcho{M: r.str(), S: r.id()}
	case 20:
		return baseline.KInput{X: r.f64()}
	case 21:
		return baseline.KPrefer{X: r.f64()}
	case 22:
		return baseline.KStrong{X: r.f64()}
	case 23:
		return baseline.KKing{X: r.f64()}
	case 24:
		return baseline.AValue{X: r.f64()}
	case 25:
		return rbroadcast.Present{}
	case 26:
		return dynamic.Present{}
	case 27:
		return dynamic.Absent{}
	case 28:
		return ring.Probe{Min: r.id()}
	case 29:
		return dynamic.SessMsg{Sess: r.i()}
	}
	panic("unreachable")
}

// FuzzSortKeyContract fuzzes the contract's three properties over
// random field values: two payloads of any two types render equal keys
// exactly when they are equal values, one tag names exactly one type,
// and ids, ints and floats sort by number. The second payload is built
// twice, once of the first one's type and once of a type the input
// picks.
func FuzzSortKeyContract(f *testing.F) {
	f.Add([]byte("seed"), byte(0))
	f.Add(bytes.Repeat([]byte{0xa5, 0x01, 0x00, 0x42}, 24), byte(9))
	f.Add(bytes.Repeat([]byte{0xff}, 64), byte(17))
	f.Fuzz(func(t *testing.T, data []byte, kind byte) {
		r := &fuzzReader{data: data}
		a := build(kind, r)
		checkPair(t, a, build(kind, r))
		checkPair(t, a, build(r.bytes(1)[0], r))
		checkNumbers(t, r.u64(), r.u64())
	})
}
