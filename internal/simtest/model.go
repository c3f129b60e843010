// Package simtest is the simulator's test support, imported only by
// _test.go files: the vocabulary of a run (System, Workload), the one
// model of the paper's §IV that every execution strategy must meet
// (Model), the run digest (Run) and the one strategy list the delivery
// tests take their columns from (Strategies, Matrix).
//
// The model's rules, written from §IV:
//   - rounds are lock-step: every present node steps once a round, on
//     the messages sent to it the round before;
//   - the network stamps the sender: a message's From is the id that
//     sent it;
//   - a send reaches every present node, its sender included, or the
//     one present node it names, and vanishes if that node is absent;
//   - one copy of a (sender, payload) reaches each recipient per round;
//     a repeat is dropped and counted;
//   - a decided node is silent;
//   - membership changes between rounds: a joiner is present from its
//     join round, a node whose Left turns true goes after that round,
//     and a faulty leave at the end of its round, unless the run ends
//     there with every correct node decided;
//   - each inbox is sorted by (sender, the payload's sort key), the one
//     order the id-only model lets a node see.
//
// It keeps maps keyed by id, a duplicate set with one entry per
// delivery, and sorts every inbox whole. It shares no code with
// internal/sim's plane.go or generic.go and is written from the model,
// not from them: the core is held to it, never the other way round.
package simtest

import (
	"cmp"
	"slices"
	"strings"

	"idonly/internal/ids"
	"idonly/internal/sim"
)

// Model plays a system on the §IV model. It is a Play, like the core's
// strategies, and honours the system's guard and sim.Blind.
func Model(cfg sim.Config, s System) sim.Metrics {
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = sim.DefaultMaxRounds
	}
	type delivery struct {
		to, from ids.ID
		payload  any
	}
	adv := s.adversary()
	_, blind := adv.(sim.Blind)
	member := map[ids.ID]sim.Process{} // every present node; nil for a faulty one
	for _, p := range s.Procs {
		member[p.ID()] = s.step(p)
	}
	for _, id := range s.Faulty {
		member[id] = nil
	}
	inbox := map[ids.ID][]sim.Message{}
	keys := map[any]string{} // each payload's sort key, rendered once
	key := func(p any) string {
		k, ok := keys[p]
		if !ok {
			k = string(sim.AppendKey(nil, p))
			keys[p] = k
		}
		return k
	}
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
		for _, j := range s.Joins {
			if j.Round == round {
				member[j.Proc.ID()] = s.step(j.Proc)
			}
		}
		if id, ok := s.FaultyJoins[round]; ok {
			member[id] = nil
		}
		m.Joins += len(member) - before
		m.PeakNodes = max(m.PeakNodes, len(member))
		var present, leavers []ids.ID
		for id := range member {
			present = append(present, id)
		}
		slices.Sort(present)
		next := map[ids.ID][]sim.Message{}
		seen := map[delivery]bool{}
		m.ByRound = append(m.ByRound, 0)
		for _, id := range present {
			in, p := inbox[id], member[id]
			slices.SortFunc(in, func(a, b sim.Message) int {
				return cmp.Or(cmp.Compare(a.From, b.From), strings.Compare(key(a.Payload), key(b.Payload)))
			})
			var sends []sim.Send
			switch {
			case p == nil && blind:
				sends = adv.Step(id, round, nil)
			case p == nil:
				sends = adv.Step(id, round, in)
			case p.Decided():
				decided(id, round-1)
				continue
			default:
				sends = p.Step(round, in)
				if cfg.Observer != nil {
					cfg.Observer(round, id, sends)
				}
			}
			for _, snd := range sends {
				tos := present
				if snd.To != sim.Broadcast {
					tos = []ids.ID{snd.To}
				}
				for _, to := range tos {
					if _, ok := member[to]; !ok {
						continue
					}
					if k := (delivery{to, id, snd.Payload}); seen[k] {
						m.MessagesDropped++
						continue
					} else {
						seen[k] = true
					}
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
		for id, p := range member { //lint:ordered a conjunction over every member, order-free
			if _, seen := m.DecidedRound[id]; p != nil && !seen {
				allDecided = false
			}
		}
		if cfg.StopWhenAllDecided && allDecided {
			break
		}
		if id, ok := s.FaultyLeaves[round]; ok {
			leave(id)
		}
	}
	return m
}
