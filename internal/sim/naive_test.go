package sim_test

// An independent reference for the runner core: the paper's §IV model
// interpreted as literally as Go allows. Lock-step rounds; the network
// stamps the sender; a send goes to everyone present (the sender
// included) or to one present node; a message repeated by one sender to
// one recipient within a round is discarded; membership changes between
// rounds — joins before a round, leavers after it. Inboxes are a map,
// the duplicate set has one entry per delivery, every inbox is sorted
// whole by (sender, the payload's sort key). It shares no code with
// the core (plane.go included) and is written from the model, not from
// it.

import (
	"reflect"
	"sort"
	"testing"

	"idonly/internal/ids"
	"idonly/internal/sim"
)

// key renders a payload's sort key. Keys are unique within a sender's
// run, so any sort of an inbox by (sender, key) yields the one order.
func key(p any) []byte { return sim.AppendKey(nil, p) }

// naiveModel is a playFn, like the core's instantiations.
func naiveModel(cfg sim.Config, s system) sim.Metrics {
	type delivery struct {
		to, from ids.ID
		payload  any
	}
	member := map[ids.ID]sim.Process{} // every present node; nil for a faulty one
	for _, p := range s.procs {
		member[p.ID()] = p
	}
	for _, id := range s.faulty {
		member[id] = nil
	}
	inbox := map[ids.ID][]sim.Message{}
	m := sim.Metrics{DecidedRound: map[ids.ID]int{}, PeakNodes: len(member), MinNodes: len(member)}
	leave := func(id ids.ID) {
		delete(member, id)
		delete(inbox, id)
		m.Leaves++
		m.MinNodes = min(m.MinNodes, len(member))
	}
	decided := func(id ids.ID, round int) {
		if _, seen := m.DecidedRound[id]; !seen {
			m.DecidedRound[id] = round
		}
	}
	for round := 1; round <= cfg.MaxRounds; round++ {
		before := len(member)
		for _, j := range s.joins {
			if j.round == round {
				member[j.proc.ID()] = j.proc
			}
		}
		if id, ok := s.fjoins[round]; ok {
			member[id] = nil
		}
		m.Joins += len(member) - before
		m.PeakNodes = max(m.PeakNodes, len(member))
		var present, leavers []ids.ID
		for id := range member {
			present = append(present, id)
		}
		sort.Slice(present, func(i, j int) bool { return present[i] < present[j] })
		next := map[ids.ID][]sim.Message{}
		seen := map[delivery]bool{}
		m.ByRound = append(m.ByRound, 0)
		for _, id := range present {
			in, p := inbox[id], member[id]
			sort.Slice(in, func(a, b int) bool {
				return in[a].From < in[b].From ||
					in[a].From == in[b].From && string(key(in[a].Payload)) < string(key(in[b].Payload))
			})
			var sends []sim.Send
			switch {
			case p == nil:
				sends = s.adv.Step(id, round, in)
			case p.Decided(): // decided nodes are silent
				decided(id, round-1)
				continue
			default:
				sends = p.Step(round, in)
				cfg.Observer(round, id, sends)
			}
			for _, snd := range sends {
				for _, to := range present {
					if snd.To != sim.Broadcast && snd.To != to {
						continue
					}
					k := delivery{to, id, snd.Payload}
					if seen[k] {
						m.MessagesDropped++
						continue
					}
					seen[k] = true
					next[to] = append(next[to], sim.Message{From: id, Payload: snd.Payload})
					m.MessagesDelivered++
					m.ByRound[round-1]++
				}
			}
			if p != nil && p.Decided() {
				decided(id, round)
			}
			if l, ok := p.(sim.Leaver); ok && l.Left() {
				leavers = append(leavers, id)
			}
		}
		inbox, m.Rounds = next, round
		for _, id := range leavers {
			leave(id)
		}
		allDecided := true
		for id, p := range member {
			if _, seen := m.DecidedRound[id]; p != nil && !seen {
				allDecided = false
			}
		}
		if cfg.StopWhenAllDecided && allDecided {
			break
		}
		if id, ok := s.fleaves[round]; ok {
			leave(id)
		}
	}
	return m
}

// TestCoreMatchesNaiveModel plays the golden protocol workloads and the
// golden churn schedules on the model and on the core: the model must
// reproduce the pinned digest (trace, outputs, rounds, deliveries) and
// the core's Metrics field for field, decided rounds and churn gauges
// included (InboxGrows aside: the model has no allocator to describe).
func TestCoreMatchesNaiveModel(t *testing.T) {
	for _, tc := range append(goldenTraces, goldenChurn...) {
		t.Run(tc.name, func(t *testing.T) {
			if got := digestRun(tc.workload, naiveModel); got != tc.want {
				t.Fatalf("the model's schedule differs from the pinned one: digest %s, golden %s", got, tc.want)
			}
			cfg := tc.config(func(int, ids.ID, []sim.Send) {})
			model, core := naiveModel(cfg, tc.sys(same)), boxed(cfg, tc.sys(same))
			if core.InboxGrows = 0; !reflect.DeepEqual(model, core) {
				t.Fatalf("metrics differ:\nmodel %+v\ncore  %+v", model, core)
			}
		})
	}
}
