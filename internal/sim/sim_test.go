package sim_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"idonly/internal/ids"
	"idonly/internal/sim"
)

// echoProc broadcasts a greeting in round 1 and records everything it
// receives; it decides after a fixed round.
type echoProc struct {
	id       ids.ID
	stopAt   int
	received []sim.Message
	rounds   []int
	decided  bool
}

func (p *echoProc) ID() ids.ID    { return p.id }
func (p *echoProc) Decided() bool { return p.decided }
func (p *echoProc) Output() any   { return len(p.received) }

type greet struct{ N int }

func (g greet) AppendSortKey(dst []byte) []byte { return sim.AppendInt(append(dst, 0xf0), int64(g.N)) }

func (p *echoProc) Step(round int, inbox []sim.Message) []sim.Send {
	p.rounds = append(p.rounds, round)
	p.received = append(p.received, inbox...)
	if round >= p.stopAt {
		p.decided = true
		return nil
	}
	return []sim.Send{sim.BroadcastPayload(greet{N: round})}
}

func newSystem(t *testing.T, n, stopAt int) (*sim.Runner, []*echoProc) {
	t.Helper()
	rng := ids.NewRand(1)
	all := ids.Sparse(rng, n)
	var procs []sim.Process
	var eps []*echoProc
	for _, id := range all {
		p := &echoProc{id: id, stopAt: stopAt}
		eps = append(eps, p)
		procs = append(procs, p)
	}
	return sim.NewRunner(sim.Config{StopWhenAllDecided: true}, procs, nil, nil), eps
}

func TestBroadcastReachesEveryoneIncludingSelf(t *testing.T) {
	r, procs := newSystem(t, 4, 2)
	r.Run(nil)
	// round 1: everyone broadcasts; round 2 inbox: 4 messages each.
	for _, p := range procs {
		if len(p.received) != 4 {
			t.Fatalf("node %d received %d messages, want 4 (self-delivery included)", p.id, len(p.received))
		}
	}
}

func TestRoundsAreSequential(t *testing.T) {
	r, procs := newSystem(t, 3, 5)
	r.Run(nil)
	for _, p := range procs {
		for i, round := range p.rounds {
			if round != i+1 {
				t.Fatalf("round sequence broken: %v", p.rounds)
			}
		}
	}
	if r.Round() != 5 {
		t.Fatalf("runner stopped at %d, want 5", r.Round())
	}
}

func TestDuplicateDiscard(t *testing.T) {
	// An adversary that sends the same payload twice in one round: only
	// one copy is delivered; a different payload still goes through.
	rng := ids.NewRand(2)
	all := ids.Sparse(rng, 3)
	var procs []sim.Process
	var eps []*echoProc
	for _, id := range all[:2] {
		p := &echoProc{id: id, stopAt: 3}
		eps = append(eps, p)
		procs = append(procs, p)
	}
	adv := dupAdversary{}
	r := sim.NewRunner(sim.Config{StopWhenAllDecided: true}, procs, all[2:], adv)
	m := r.Run(nil)
	if m.MessagesDropped == 0 {
		t.Fatal("duplicates were not dropped")
	}
	// Each correct node should see exactly 2 adversary messages per
	// round (greet{100}, greet{200}), not 3.
	for _, p := range eps {
		advCount := 0
		for _, msg := range p.received {
			if g, ok := msg.Payload.(greet); ok && g.N >= 100 {
				advCount++
			}
		}
		if advCount != 2*2 { // 2 payloads × 2 rounds before deciding
			t.Fatalf("node %d saw %d adversary messages, want 4", p.id, advCount)
		}
	}
}

type dupAdversary struct{}

func (dupAdversary) Step(node ids.ID, round int, _ []sim.Message) []sim.Send {
	return []sim.Send{
		sim.BroadcastPayload(greet{N: 100}),
		sim.BroadcastPayload(greet{N: 100}), // duplicate, must be dropped
		sim.BroadcastPayload(greet{N: 200}),
	}
}

func TestUnicastOnlyReachesTarget(t *testing.T) {
	rng := ids.NewRand(3)
	all := ids.Sparse(rng, 3)
	var procs []sim.Process
	var eps []*echoProc
	for _, id := range all[:2] {
		p := &echoProc{id: id, stopAt: 3}
		eps = append(eps, p)
		procs = append(procs, p)
	}
	adv := targetAdversary{target: all[0]}
	r := sim.NewRunner(sim.Config{StopWhenAllDecided: true}, procs, all[2:], adv)
	r.Run(nil)
	for _, p := range eps {
		got := 0
		for _, msg := range p.received {
			if g, ok := msg.Payload.(greet); ok && g.N == 999 {
				got++
			}
		}
		if p.id == all[0] && got == 0 {
			t.Fatal("target received nothing")
		}
		if p.id != all[0] && got != 0 {
			t.Fatal("non-target received a unicast")
		}
	}
}

type targetAdversary struct{ target ids.ID }

func (a targetAdversary) Step(ids.ID, int, []sim.Message) []sim.Send {
	return []sim.Send{sim.Unicast(a.target, greet{N: 999})}
}

func TestSenderStamping(t *testing.T) {
	// The runner must stamp the true sender: every received message's
	// From is an actual system id.
	r, procs := newSystem(t, 4, 3)
	r.Run(nil)
	valid := make(map[ids.ID]bool)
	for _, p := range procs {
		valid[p.id] = true
	}
	for _, p := range procs {
		for _, msg := range p.received {
			if !valid[msg.From] {
				t.Fatalf("forged sender %d", msg.From)
			}
		}
	}
}

func TestMetricsAccounting(t *testing.T) {
	r, _ := newSystem(t, 4, 2)
	m := r.Run(nil)
	// round 1: 4 broadcasts × 4 recipients = 16 deliveries; round 2:
	// everyone decides without sending.
	if m.MessagesDelivered != 16 {
		t.Fatalf("MessagesDelivered = %d, want 16", m.MessagesDelivered)
	}
	if len(m.ByRound) < 2 || m.ByRound[0] != 16 {
		t.Fatalf("ByRound = %v", m.ByRound)
	}
	if len(m.DecidedRound) != 4 {
		t.Fatalf("DecidedRound = %v", m.DecidedRound)
	}
}

func TestScheduledJoinParticipates(t *testing.T) {
	r, procs := newSystem(t, 3, 6)
	late := &echoProc{id: 424242, stopAt: 6}
	r.ScheduleJoin(3, late)
	r.Run(nil)
	if len(late.rounds) == 0 || late.rounds[0] != 3 {
		t.Fatalf("joiner first round = %v, want 3", late.rounds)
	}
	// the joiner's broadcasts must reach the founders from round 4
	found := false
	for _, p := range procs {
		for _, msg := range p.received {
			if msg.From == late.id {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("joiner messages never delivered")
	}
}

// leaverProc leaves after a fixed round.
type leaverProc struct {
	echoProc
	leaveAt int
	left    bool
}

func (p *leaverProc) Step(round int, inbox []sim.Message) []sim.Send {
	out := p.echoProc.Step(round, inbox)
	if round >= p.leaveAt {
		p.left = true
	}
	return out
}

func (p *leaverProc) Left() bool { return p.left }

func TestLeaverStopsReceiving(t *testing.T) {
	rng := ids.NewRand(4)
	all := ids.Sparse(rng, 3)
	stay1 := &echoProc{id: all[0], stopAt: 8}
	stay2 := &echoProc{id: all[1], stopAt: 8}
	goner := &leaverProc{echoProc: echoProc{id: all[2], stopAt: 8}, leaveAt: 3}
	r := sim.NewRunner(sim.Config{StopWhenAllDecided: true},
		[]sim.Process{stay1, stay2, goner}, nil, nil)
	r.Run(nil)
	if len(goner.rounds) != 3 {
		t.Fatalf("leaver stepped %d rounds, want 3", len(goner.rounds))
	}
	// after leaving, the leaver must not appear in the active set
	for _, id := range r.Active() {
		if id == goner.id {
			t.Fatal("leaver still active")
		}
	}
}

func TestDuplicateProcessPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate ids must panic")
		}
	}()
	p1 := &echoProc{id: 1, stopAt: 1}
	p2 := &echoProc{id: 1, stopAt: 1}
	sim.NewRunner(sim.Config{}, []sim.Process{p1, p2}, nil, nil)
}

func TestFaultyWithoutAdversaryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("faulty ids without adversary must panic")
		}
	}()
	p := &echoProc{id: 1, stopAt: 1}
	sim.NewRunner(sim.Config{}, []sim.Process{p}, []ids.ID{2}, nil)
}

func TestMaxRoundsCap(t *testing.T) {
	// A system that never decides stops at MaxRounds.
	p := &echoProc{id: 1, stopAt: 1 << 30}
	r := sim.NewRunner(sim.Config{MaxRounds: 7}, []sim.Process{p}, nil, nil)
	m := r.Run(nil)
	if m.Rounds != 7 {
		t.Fatalf("Rounds = %d, want 7", m.Rounds)
	}
}

// floodAdversary broadcasts many distinct payloads per round.
type floodAdversary struct{ k int }

func (a floodAdversary) Step(node ids.ID, round int, _ []sim.Message) []sim.Send {
	out := make([]sim.Send, a.k)
	for i := range out {
		out[i] = sim.BroadcastPayload(greet{N: 1000 + i})
	}
	return out
}

// unicastFloodAdversary unicasts many distinct payloads to every
// correct node per round.
type unicastFloodAdversary struct {
	k   int
	tos []ids.ID
}

func (a unicastFloodAdversary) Step(node ids.ID, round int, _ []sim.Message) []sim.Send {
	var out []sim.Send
	for _, to := range a.tos {
		for i := 0; i < a.k; i++ {
			out = append(out, sim.Unicast(to, greet{N: 1000 + i}))
		}
	}
	return out
}

func TestInboxGrowsCountsBufferGrowth(t *testing.T) {
	// The pooled delivery buffers — the broadcast log and the round's
	// lane bucket — are pre-sized for about one send per peer; a flood
	// of distinct payloads must overflow them (counted in InboxGrows) in
	// the first rounds and be absorbed by the grown buffers afterwards.
	run := func(n, rounds int, adv func(correct []ids.ID) sim.Adversary) sim.Metrics {
		all := ids.Sparse(ids.NewRand(5), n+1)
		var procs []sim.Process
		for _, id := range all[:n] {
			procs = append(procs, &echoProc{id: id, stopAt: 1 << 30})
		}
		return sim.NewRunner(sim.Config{MaxRounds: rounds}, procs, all[n:], adv(all[:n])).Run(nil)
	}
	broadcasts := func([]ids.ID) sim.Adversary { return floodAdversary{k: 40} }
	unicasts := func(correct []ids.ID) sim.Adversary { return unicastFloodAdversary{k: 40, tos: correct} }
	for name, adv := range map[string]func([]ids.ID) sim.Adversary{"broadcast flood": broadcasts, "unicast flood": unicasts} {
		short := run(2, 2, adv)
		if short.InboxGrows == 0 {
			t.Fatalf("%s did not grow any pooled buffer", name)
		}
		if long := run(2, 6, adv); long.InboxGrows != short.InboxGrows {
			t.Fatalf("%s: buffers kept growing after warm-up: %d grows in 2 rounds, %d in 6",
				name, short.InboxGrows, long.InboxGrows)
		}
	}
	// Neither flood grows a buffer per recipient: a broadcast flood
	// grows the one log, and a unicast flood the one array the round's
	// lane bucket scatters into, counted once per round it outgrows. More
	// recipients grow nothing more.
	for name, adv := range map[string]func([]ids.ID) sim.Adversary{"broadcast flood": broadcasts, "unicast flood": unicasts} {
		if few, many := run(2, 4, adv), run(6, 4, adv); few.InboxGrows != many.InboxGrows {
			t.Fatalf("%s: %d grows with 2 correct recipients, %d with 6", name, few.InboxGrows, many.InboxGrows)
		}
	}
}

// TestNoReflectImport keeps the simulator reflection-free. The hot
// path's runtime gate is TestSteadyRoundAllocs, which fails on an fmt
// call or an any box that allocates, but a reflect call need not
// allocate — reflect.TypeOf(m).Name() on the per-send path costs none —
// so no non-test file here may import reflect.
func TestNoReflectImport(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"reflect"` {
				t.Errorf("%s imports reflect; the simulator is reflection-free", name)
			}
		}
	}
}
