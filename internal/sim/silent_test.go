package sim_test

// Silent ≡ absent, a metamorphic relation of the id-only model: a
// faulty node that never sends is invisible to the correct nodes, which
// cannot tell it from a node that is not there.

import (
	"reflect"
	"testing"

	"idonly/internal/adversary"
	"idonly/internal/simtest"
)

// TestSilentIsAbsent plays each golden system (the six protocols and
// the ring overlay) with its adversary replaced by adversary.Silent,
// and again with its faulty ids deleted, on every strategy: the trace,
// the outputs, the rounds, the drops and the decided rounds must be the
// same. Only the deliveries (MessagesDelivered, ByRound) may differ,
// for the silent nodes receive, and the membership gauges, which count
// them.
func TestSilentIsAbsent(t *testing.T) {
	for _, row := range goldenTraces {
		silent, absent := row.Workload, row.Workload
		silent.Sys = func(g simtest.Relabel) simtest.System {
			s := row.Sys(g)
			s.Adv = adversary.Silent{}
			return s
		}
		absent.Sys = func(g simtest.Relabel) simtest.System {
			s := row.Sys(g)
			s.Faulty, s.Adv = nil, nil
			return s
		}
		for st, play := range simtest.Plays(row.Typed) {
			t.Run(row.Name+"/"+st.Name, func(t *testing.T) {
				a, b := simtest.Run(silent, play, nil), simtest.Run(absent, play, nil)
				ma, mb := a.Metrics, b.Metrics
				if a.Trace != b.Trace || ma.Rounds != mb.Rounds || ma.MessagesDropped != mb.MessagesDropped ||
					!reflect.DeepEqual(ma.DecidedRound, mb.DecidedRound) {
					t.Fatalf("silent and absent faulty nodes differ: trace %x/%x, rounds %d/%d, dropped %d/%d, decided %v/%v",
						a.Trace, b.Trace, ma.Rounds, mb.Rounds, ma.MessagesDropped, mb.MessagesDropped, ma.DecidedRound, mb.DecidedRound)
				}
				if ma.MessagesDelivered <= mb.MessagesDelivered {
					t.Fatalf("the silent nodes received nothing: %d deliveries, %d without them", ma.MessagesDelivered, mb.MessagesDelivered)
				}
			})
		}
	}
}
