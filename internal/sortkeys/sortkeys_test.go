package sortkeys

import (
	"bytes"
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
	"idonly/internal/core/rotor"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// TestAppendSortKeyMatchesSprint is the differential half of the
// sort-key contract: for every registered payload value, AppendSortKey
// must produce exactly the bytes fmt.Sprint renders, and appending must
// preserve whatever dst already held.
func TestAppendSortKeyMatchesSprint(t *testing.T) {
	prefix := []byte("prefix|")
	for _, s := range Samples() {
		want := fmt.Sprint(s)
		if got := string(s.AppendSortKey(nil)); got != want {
			t.Errorf("%T: AppendSortKey = %q, fmt.Sprint = %q", s, got, want)
		}
		got := s.AppendSortKey(append([]byte(nil), prefix...))
		if !bytes.HasPrefix(got, prefix) || string(got[len(prefix):]) != want {
			t.Errorf("%T: AppendSortKey clobbered dst: %q", s, got)
		}
	}
}

// typeIdent names a payload's concrete type, the unit within which the
// sort-key contract makes key bytes and values agree. The SessMsg
// wrapper renders its inner payload's key in place, so its identity
// includes the inner type: parallel.NoPref and parallel.NoStrongPref for
// one pair render alike and stay distinct values inside a SessMsg too.
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
			keys[i] = string(s.AppendSortKey(nil))
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
	if math.IsNaN(f) || f == 0 {
		return 0 // NaN and -0 are outside the sort-key contract
	}
	return f
}
func (r *fuzzReader) val() parallel.Val {
	return parallel.Val{S: r.str(), Bot: r.b()}
}

// build constructs one payload of the type selected by kind from the
// reader's bytes.
func build(kind byte, r *fuzzReader) sim.SortKeyer {
	switch kind % 21 {
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
	}
	panic("unreachable")
}

// FuzzSortKeyContract fuzzes the two contract halves over random field
// values: AppendSortKey == fmt.Sprint, and within a concrete type equal
// bytes imply equal values.
func FuzzSortKeyContract(f *testing.F) {
	f.Add([]byte("seed"), byte(0))
	f.Add(bytes.Repeat([]byte{0xa5, 0x01, 0x00, 0x42}, 24), byte(9))
	f.Add(bytes.Repeat([]byte{0xff}, 64), byte(17))
	f.Fuzz(func(t *testing.T, data []byte, kind byte) {
		r := &fuzzReader{data: data}
		a := build(kind, r)
		b := build(kind, r)
		for _, s := range []sim.SortKeyer{a, b} {
			if got, want := string(s.AppendSortKey(nil)), fmt.Sprint(s); got != want {
				t.Fatalf("%T: AppendSortKey = %q, fmt.Sprint = %q", s, got, want)
			}
		}
		if typeIdent(a) == typeIdent(b) {
			ka, kb := string(a.AppendSortKey(nil)), string(b.AppendSortKey(nil))
			if ka == kb && a != b {
				t.Fatalf("injectivity: distinct %#v and %#v share key %q", a, b, ka)
			}
			if a == b && ka != kb {
				t.Fatalf("converse: equal values render %q vs %q", ka, kb)
			}
		}
	})
}
