package sim_test

// Order-preserving relabelling, a metamorphic relation of the id-only
// model: a protocol sees ids only through equality and order, so
// passing every id of a run through a strictly increasing function
// must leave the run the same run. Rounds, deliveries, drops and
// decided rounds stay identical, and every output maps through the
// function. Sort keys write ids big-endian, so an inbox's order is
// the ids' numeric order and survives the relabelling.

import (
	"reflect"
	"slices"
	"testing"

	"idonly/internal/ids"
	"idonly/internal/simtest"
)

// stretch is strictly increasing and keeps every id the workloads draw
// (at most 2^40) far from overflow and from 0, the broadcast address.
func stretch(id ids.ID) ids.ID { return 3*id + 7 }

// relabelOutput passes every ids.ID inside v through g: struct fields,
// slice elements, map keys and values.
func relabelOutput(v reflect.Value, g simtest.Relabel) reflect.Value {
	if v.Type() == reflect.TypeFor[ids.ID]() {
		return reflect.ValueOf(g(ids.ID(v.Uint())))
	}
	switch v.Kind() {
	case reflect.Struct:
		out := reflect.New(v.Type()).Elem()
		for i := range v.NumField() {
			out.Field(i).Set(relabelOutput(v.Field(i), g))
		}
		return out
	case reflect.Slice:
		if v.IsNil() {
			return v
		}
		out := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		for i := range v.Len() {
			out.Index(i).Set(relabelOutput(v.Index(i), g))
		}
		return out
	case reflect.Map:
		out := reflect.MakeMapWithSize(v.Type(), v.Len())
		for it := v.MapRange(); it.Next(); {
			out.SetMapIndex(relabelOutput(it.Key(), g), relabelOutput(it.Value(), g))
		}
		return out
	}
	return v
}

func TestOrderPreservingRelabelling(t *testing.T) {
	for _, tc := range slices.Concat(goldenTraces, goldenChurn) {
		for st, play := range simtest.Plays(tc.Typed) {
			t.Run(tc.Name+"/"+st.Name, func(t *testing.T) { checkRelabel(t, tc.Workload, play, stretch) })
		}
	}
}

// checkRelabel plays w as drawn and with every id passed through g, and
// holds the relabelled run to the first: the same rounds, deliveries,
// drops and per-round counts, the same decided rounds under the mapped
// ids, and every output mapped through g.
func checkRelabel(t *testing.T, w simtest.Workload, play simtest.Play, g simtest.Relabel) {
	t.Helper()
	base, moved := w.Sys(simtest.Same), w.Sys(g)
	mb, mm := play(w.Config(nil), base), play(w.Config(nil), moved)
	if mb.Rounds != mm.Rounds || mb.MessagesDelivered != mm.MessagesDelivered ||
		mb.MessagesDropped != mm.MessagesDropped || !slices.Equal(mb.ByRound, mm.ByRound) {
		t.Fatalf("relabelled run differs: rounds/delivered/dropped %d/%d/%d, want %d/%d/%d",
			mm.Rounds, mm.MessagesDelivered, mm.MessagesDropped, mb.Rounds, mb.MessagesDelivered, mb.MessagesDropped)
	}
	if len(mm.DecidedRound) != len(mb.DecidedRound) {
		t.Fatalf("%d nodes decided, want %d", len(mm.DecidedRound), len(mb.DecidedRound))
	}
	for id, r := range mb.DecidedRound {
		if got, ok := mm.DecidedRound[g(id)]; !ok || got != r {
			t.Fatalf("node %d decided in round %d (%v), want %d", g(id), got, ok, r)
		}
	}
	for i, p := range moved.All() {
		want := base.All()[i].Output()
		if want != nil {
			want = relabelOutput(reflect.ValueOf(want), g).Interface()
		}
		if got := p.Output(); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d output %v, want %v", p.ID(), got, want)
		}
	}
}

// decodeRelabel reads a workload and a strictly increasing id map from
// fuzz bytes. Byte 0 picks the workload and byte 1 the strategy;
// byte 2 sets the slope a (1–4) and byte 3 the offset b (1–256); then
// every 4 bytes name a breakpoint (3 bytes, scaled to 2^40) and a gap
// (1–256) that every id above the breakpoint moves up by, at most 8 of
// them. So g(id) = a·id + b + the gaps of the breakpoints below id:
// positive gaps keep g strictly increasing, b keeps it clear of 0, the
// broadcast address, and ids drawn below 2^40 stay far from overflow.
func decodeRelabel(data []byte) (simtest.Workload, simtest.Play, simtest.Relabel) {
	data = append(slices.Clip(data), make([]byte, max(0, 4-len(data)))...)
	all := slices.Concat(goldenTraces, goldenChurn)
	w := all[int(data[0])%len(all)].Workload
	var plays []simtest.Play
	for _, play := range simtest.Plays(w.Typed) {
		plays = append(plays, play)
	}
	play := plays[int(data[1])%len(plays)]
	a, b := ids.ID(1+data[2]%4), ids.ID(1+int(data[3]))
	type step struct{ at, gap ids.ID }
	var steps []step
	for rest := data[4:]; len(rest) >= 4 && len(steps) < 8; rest = rest[4:] {
		at := ids.ID(rest[0])<<32 | ids.ID(rest[1])<<24 | ids.ID(rest[2])<<16
		steps = append(steps, step{at, ids.ID(1 + int(rest[3]))})
	}
	return w, play, func(id ids.ID) ids.ID {
		out := a*id + b
		for _, s := range steps {
			if s.at < id {
				out += s.gap
			}
		}
		return out
	}
}

// FuzzOrderPreservingRelabel is TestOrderPreservingRelabelling over
// fuzzed maps: the bytes pick a golden workload, a strategy and
// a strictly increasing id map (decodeRelabel), and the relabelled run
// must be the same run.
func FuzzOrderPreservingRelabel(f *testing.F) {
	for k := range len(goldenTraces) + len(goldenChurn) {
		for c := range len(simtest.Strategies) {
			f.Add([]byte{byte(k), byte(c), 0, 0}) // the identity shifted by one
		}
	}
	// Steeper slopes, large offsets and breakpoints among the drawn ids.
	f.Add([]byte{2, 0, 3, 255, 0, 0, 1, 9, 0, 1, 0, 200, 0, 40, 0, 17})
	f.Add([]byte{1, 1, 1, 7, 0, 0, 0, 1, 0, 0, 0, 2, 255, 255, 255, 255})
	f.Add([]byte{5, 1, 2, 0, 0, 128, 0, 3, 0, 0, 64, 255})
	f.Add([]byte{7, 0, 0, 9, 0, 16, 0, 5, 0, 32, 0, 5, 0, 48, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		w, play, g := decodeRelabel(data)
		checkRelabel(t, w, play, g)
	})
}
