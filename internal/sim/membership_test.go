package sim_test

// Membership guards of the runner core, pinned on both instantiations:
// the panics of a bad founding table, a join or a faulty leave, and
// when a scheduled membership change takes effect.

import (
	"fmt"
	"testing"

	"idonly/internal/core/ring"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// guardProc broadcasts one probe per round on either instantiation,
// decides after decideAt rounds and leaves after leaveAt rounds (0 =
// never).
type guardProc struct {
	id       ids.ID
	leaveAt  int
	decideAt int
	rounds   int
	heard    map[ids.ID]int // sender -> last round one of its probes arrived
}

func (p *guardProc) ID() ids.ID    { return p.id }
func (p *guardProc) Decided() bool { return p.decideAt != 0 && p.rounds >= p.decideAt }
func (p *guardProc) Output() any   { return p.rounds }
func (p *guardProc) Left() bool    { return p.leaveAt != 0 && p.rounds >= p.leaveAt }
func (p *guardProc) StepTyped(round int, inbox []sim.MsgT[ring.Probe]) []sim.SendT[ring.Probe] {
	p.rounds = round
	for _, m := range inbox {
		if p.heard == nil {
			p.heard = make(map[ids.ID]int)
		}
		p.heard[m.From] = round
	}
	return []sim.SendT[ring.Probe]{sim.BroadcastT(ring.Probe{Min: p.id})}
}
func (p *guardProc) Step(round int, inbox []sim.Message) []sim.Send {
	typed := make([]sim.MsgT[ring.Probe], len(inbox))
	for i, m := range inbox {
		typed[i] = sim.MsgT[ring.Probe]{From: m.From, Payload: m.Payload.(ring.Probe)}
	}
	p.StepTyped(round, typed)
	return []sim.Send{sim.BroadcastPayload(ring.Probe{Min: p.id})}
}

type quietAdv struct{}

func (quietAdv) Step(ids.ID, int, []sim.Message) []sim.Send { return nil }

// membership is the part of either instantiation these tests drive;
// join hides that the two take their joiners as different types.
type membership struct {
	member
	join func(round int, p *guardProc)
}

type member interface {
	Run(stop func(round int) bool) sim.Metrics
	ScheduleFaultyJoin(round int, id ids.ID)
	ScheduleFaultyLeave(round int, id ids.ID)
	StepRound()
	Active() []ids.ID
	Metrics() sim.Metrics
}

var memberships = map[string]func(cfg sim.Config, procs []*guardProc, faulty []ids.ID) membership{
	"boxed": func(cfg sim.Config, procs []*guardProc, faulty []ids.ID) membership {
		r := sim.NewRunner(cfg, procs, faulty, quietAdv{})
		return membership{r, func(round int, p *guardProc) { r.ScheduleJoin(round, p) }}
	},
	"typed": func(cfg sim.Config, procs []*guardProc, faulty []ids.ID) membership {
		r := sim.NewTypedRunner(cfg, procs, faulty, quietAdv{}, ring.WireCodec())
		return membership{r, r.ScheduleJoin}
	},
}

func TestMembershipGuards(t *testing.T) {
	procs := func(idv ...ids.ID) []*guardProc {
		var out []*guardProc
		for _, id := range idv {
			out = append(out, &guardProc{id: id})
		}
		return out
	}
	cases := []struct {
		name string
		want string // the panic
		do   func(mk func(sim.Config, []*guardProc, []ids.ID) membership)
	}{
		{"duplicate process id", "sim: duplicate process id 1", func(mk func(sim.Config, []*guardProc, []ids.ID) membership) {
			mk(sim.Config{}, procs(1, 2, 1), nil)
		}},
		{"duplicate faulty id", "sim: duplicate faulty id 9", func(mk func(sim.Config, []*guardProc, []ids.ID) membership) {
			mk(sim.Config{}, procs(1), []ids.ID{9, 9})
		}},
		{"correct and faulty", "sim: id 2 is both correct and faulty", func(mk func(sim.Config, []*guardProc, []ids.ID) membership) {
			mk(sim.Config{}, procs(1, 2), []ids.ID{2})
		}},
		{"join in the past", "sim: join scheduled in the past", func(mk func(sim.Config, []*guardProc, []ids.ID) membership) {
			m := mk(sim.Config{}, procs(1, 2), nil)
			m.StepRound()
			m.join(1, &guardProc{id: 3})
		}},
		{"faulty join in the past", "sim: join scheduled in the past", func(mk func(sim.Config, []*guardProc, []ids.ID) membership) {
			m := mk(sim.Config{}, procs(1, 2), nil)
			m.StepRound()
			m.ScheduleFaultyJoin(1, 3)
		}},
		{"process joins twice", "sim: process id 3 joined twice", func(mk func(sim.Config, []*guardProc, []ids.ID) membership) {
			m := mk(sim.Config{}, procs(1, 2), nil)
			m.join(2, &guardProc{id: 3})
			m.join(3, &guardProc{id: 3})
			m.Run(nil)
		}},
		{"faulty joins twice", "sim: faulty id 9 joined twice", func(mk func(sim.Config, []*guardProc, []ids.ID) membership) {
			m := mk(sim.Config{}, procs(1, 2), []ids.ID{9})
			m.ScheduleFaultyJoin(2, 9)
			m.Run(nil)
		}},
		{"join onto a faulty id", "sim: id 9 already active", func(mk func(sim.Config, []*guardProc, []ids.ID) membership) {
			m := mk(sim.Config{}, procs(1, 2), []ids.ID{9})
			m.join(2, &guardProc{id: 9})
			m.Run(nil)
		}},
		{"remove a correct node", "sim: leave of non-faulty id 1", func(mk func(sim.Config, []*guardProc, []ids.ID) membership) {
			m := mk(sim.Config{}, procs(1, 2), []ids.ID{9})
			m.ScheduleFaultyLeave(1, 1)
			m.StepRound()
		}},
		{"remove an absent node", "sim: leave of non-faulty id 7", func(mk func(sim.Config, []*guardProc, []ids.ID) membership) {
			m := mk(sim.Config{}, procs(1, 2), []ids.ID{9})
			m.ScheduleFaultyLeave(1, 7)
			m.StepRound()
		}},
		{"leave in the past", "sim: leave scheduled in the past", func(mk func(sim.Config, []*guardProc, []ids.ID) membership) {
			m := mk(sim.Config{}, procs(1, 2), []ids.ID{9})
			m.StepRound()
			m.ScheduleFaultyLeave(1, 9)
		}},
		// A leave for the running round, asked for mid-round, is in the
		// past too: membership cannot change while a round executes.
		{"remove mid-round", "sim: leave scheduled in the past", func(mk func(sim.Config, []*guardProc, []ids.ID) membership) {
			var m membership
			m = mk(sim.Config{Observer: func(int, ids.ID, []sim.Send) { m.ScheduleFaultyLeave(1, 9) }}, procs(1, 2), []ids.ID{9})
			m.StepRound()
		}},
	}
	for name, mk := range memberships {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				defer func() {
					if got := fmt.Sprint(recover()); got != tc.want {
						t.Fatalf("panic %q, want %q", got, tc.want)
					}
				}()
				tc.do(mk)
			})
		}
	}
}

// TestLeaverOnBothInstantiations: a process whose Left reports true is
// stepped that round, its last sends are delivered, and it is gone —
// from the table, from the undecided count — before the next.
func TestLeaverOnBothInstantiations(t *testing.T) {
	for name, mk := range memberships {
		t.Run(name, func(t *testing.T) {
			stay, goner := &guardProc{id: 1}, &guardProc{id: 2, leaveAt: 3}
			m := mk(sim.Config{MaxRounds: 6}, []*guardProc{stay, goner}, nil)
			m.Run(nil)
			if goner.rounds != 3 {
				t.Fatalf("leaver stepped %d rounds, want 3", goner.rounds)
			}
			if stay.heard[goner.id] != 4 {
				t.Fatalf("the leaver's last probe arrived in round %d, want 4 (sent in its final round 3)", stay.heard[goner.id])
			}
			if got := m.Active(); len(got) != 1 || got[0] != stay.id {
				t.Fatalf("active after the departure: %v, want [%d]", got, stay.id)
			}
			if mt := m.Metrics(); mt.Leaves != 1 || mt.MinNodes != 1 || mt.Rounds != 6 {
				t.Fatalf("metrics after the departure: %+v", mt)
			}
		})
	}
}

// TestFaultyLeaveInTheLastRound: a faulty leave takes effect at the end
// of its round. One due in the round a MaxRounds stop ends counts; one
// due in the round every correct node decided does not, for the run is
// over with the node still present.
func TestFaultyLeaveInTheLastRound(t *testing.T) {
	for name, mk := range memberships {
		t.Run(name, func(t *testing.T) {
			m := mk(sim.Config{MaxRounds: 3}, []*guardProc{{id: 1}, {id: 2}}, []ids.ID{9})
			m.ScheduleFaultyLeave(3, 9)
			if mt := m.Run(nil); mt.Rounds != 3 || mt.Leaves != 1 || mt.MinNodes != 2 {
				t.Fatalf("leave in the MaxRounds round: rounds=%d leaves=%d min=%d, want 3, 1, 2", mt.Rounds, mt.Leaves, mt.MinNodes)
			}
			m = mk(sim.Config{MaxRounds: 10, StopWhenAllDecided: true},
				[]*guardProc{{id: 1, decideAt: 3}, {id: 2, decideAt: 3}}, []ids.ID{8, 9})
			m.ScheduleFaultyLeave(2, 8)
			m.ScheduleFaultyLeave(3, 9)
			if mt := m.Run(nil); mt.Rounds != 3 || mt.Leaves != 1 || mt.MinNodes != 3 {
				t.Fatalf("leave in the all-decided round: rounds=%d leaves=%d min=%d, want 3, 1, 3", mt.Rounds, mt.Leaves, mt.MinNodes)
			}
			if got := m.Active(); len(got) != 3 || got[2] != 9 {
				t.Fatalf("active after the all-decided round: %v, want 9 still present", got)
			}
		})
	}
}
