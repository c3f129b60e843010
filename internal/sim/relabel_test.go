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
)

// stretch is strictly increasing and keeps every id the workloads draw
// (at most 2^40) far from overflow and from 0, the broadcast address.
func stretch(id ids.ID) ids.ID { return 3*id + 7 }

// relabelOutput passes every ids.ID inside v through g: struct fields,
// slice elements, map keys and values.
func relabelOutput(v reflect.Value, g relabel) reflect.Value {
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
	for _, tc := range append(goldenTraces, goldenChurn...) {
		for name, play := range tc.instantiations() {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				base, moved := tc.sys(same), tc.sys(stretch)
				mb, mm := play(tc.config(nil), base), play(tc.config(nil), moved)
				if mb.Rounds != mm.Rounds || mb.MessagesDelivered != mm.MessagesDelivered ||
					mb.MessagesDropped != mm.MessagesDropped || !slices.Equal(mb.ByRound, mm.ByRound) {
					t.Fatalf("relabelled run differs: rounds/delivered/dropped %d/%d/%d, want %d/%d/%d",
						mm.Rounds, mm.MessagesDelivered, mm.MessagesDropped, mb.Rounds, mb.MessagesDelivered, mb.MessagesDropped)
				}
				if len(mm.DecidedRound) != len(mb.DecidedRound) {
					t.Fatalf("%d nodes decided, want %d", len(mm.DecidedRound), len(mb.DecidedRound))
				}
				for id, r := range mb.DecidedRound {
					if got, ok := mm.DecidedRound[stretch(id)]; !ok || got != r {
						t.Fatalf("node %d decided in round %d (%v), want %d", stretch(id), got, ok, r)
					}
				}
				for i, p := range moved.all() {
					want := base.all()[i].Output()
					if want != nil {
						want = relabelOutput(reflect.ValueOf(want), stretch).Interface()
					}
					if got := p.Output(); !reflect.DeepEqual(got, want) {
						t.Fatalf("node %d output %v, want %v", p.ID(), got, want)
					}
				}
			})
		}
	}
}
