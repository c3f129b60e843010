package sim_test

// The duplicate rule and inbox assembly, scripted: every node plays a
// fixed schedule of sends, and every strategy of simtest.Strategies
// must hand every node the model's inboxes, entry for entry and in
// order, with the model's counters. The payloads come in three types of
// one shape (sim.RegPayload, TwinPayload and ThirdPayload, united by
// sim.AsmWire), so one value under two types is two messages whose keys
// differ in the tag alone.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"idonly/internal/ids"
	"idonly/internal/sim"
	"idonly/internal/simtest"
)

// script is round -> sender -> sends, in send order.
type script map[int]map[ids.ID][]sim.Send

// scripted is a run in which every node, correct or faulty, plays its
// sends from one script: correct and faulty founders, a correct joiner
// and a correct leaver (0: none), and faulty joiners.
type scripted struct {
	script
	rounds           int
	founders, faulty []ids.ID
	joiner, leaver   ids.ID
	joinAt, leaveAt  int // the joiner's first round; the leaver's last
	fjoins           map[int]ids.ID
}

// inboxes is what a run handed its nodes: id -> round -> inbox.
type inboxes map[ids.ID]map[int][]sim.Message

func (in inboxes) keep(id ids.ID, round int, inbox []sim.Message) {
	if in[id] == nil {
		in[id] = map[int][]sim.Message{}
	}
	in[id][round] = append([]sim.Message(nil), inbox...)
}

// diff names the first inbox in which got and want differ, or "".
func (got inboxes) diff(want inboxes) string {
	for id, rounds := range want {
		for round, in := range rounds {
			if g, ok := got[id][round]; !ok || !slices.Equal(g, in) {
				return fmt.Sprintf("node %d round %d: handed %v (stepped: %v), model %v", id, round, g, ok, in)
			}
		}
	}
	for id, rounds := range got {
		for round, in := range rounds {
			if _, ok := want[id][round]; !ok {
				return fmt.Sprintf("node %d round %d: handed %v where the model handed nothing", id, round, in)
			}
		}
	}
	return ""
}

// scriptProc plays its sends from the script, keeps every inbox it is
// handed, and leaves after round leaveAt (0 = never). It steps boxed,
// and typed over sim.AsmWire.
type scriptProc struct {
	id      ids.ID
	sc      script
	leaveAt int
	round   int
	got     inboxes
}

func (p *scriptProc) ID() ids.ID    { return p.id }
func (p *scriptProc) Decided() bool { return false }
func (p *scriptProc) Output() any   { return nil }
func (p *scriptProc) Left() bool    { return p.leaveAt != 0 && p.round >= p.leaveAt }
func (p *scriptProc) Step(round int, inbox []sim.Message) []sim.Send {
	p.round = round
	p.got.keep(p.id, round, inbox)
	return p.sc[round][p.id]
}
func (p *scriptProc) StepTyped(round int, inbox []sim.MsgT[sim.AsmWire]) []sim.SendT[sim.AsmWire] {
	boxed := make([]sim.Message, len(inbox))
	for i, m := range inbox {
		boxed[i] = sim.Message{From: m.From, Payload: sim.AsmCodec.Unwrap(m.Payload)}
	}
	var out []sim.SendT[sim.AsmWire]
	for _, s := range p.Step(round, boxed) {
		w, _ := sim.AsmCodec.Wrap(s.Payload)
		out = append(out, sim.SendT[sim.AsmWire]{To: s.To, Payload: w})
	}
	return out
}

// scriptAdv plays the faulty nodes' sends and keeps every inbox it is
// handed.
type scriptAdv struct {
	sc  script
	got inboxes
}

func (a scriptAdv) Step(node ids.ID, round int, inbox []sim.Message) []sim.Send {
	a.got.keep(node, round, inbox)
	return a.sc[round][node]
}

// blindAdv plays them reading no inbox, and says so: it must be handed
// none, and one it is handed anyway is kept, to show beside the model's
// nothing.
type blindAdv scriptAdv

func (a blindAdv) Step(node ids.ID, round int, inbox []sim.Message) []sim.Send {
	if inbox != nil {
		a.got.keep(node, round, inbox)
	}
	return a.sc[round][node]
}

func (blindAdv) Blind() {}

// play runs sc on every strategy, under the blind adversary or the
// reading one, and holds each run's counters and every inbox it handed
// a node to the model's, reporting each strategy that differs. It
// returns the model's metrics.
func (sc scripted) play(t *testing.T, tag string, blind bool) sim.Metrics {
	t.Helper()
	var model sim.Metrics
	var want inboxes
	for st, play := range simtest.Plays(simtest.Typed[*scriptProc](sim.AsmCodec)) {
		got := inboxes{}
		s := simtest.System{Faulty: sc.faulty, Adv: scriptAdv{sc.script, got}, FaultyJoins: sc.fjoins}
		if blind {
			s.Adv = blindAdv{sc.script, got}
		}
		proc := func(id ids.ID) *scriptProc {
			p := &scriptProc{id: id, sc: sc.script, got: got}
			if id == sc.leaver {
				p.leaveAt = sc.leaveAt
			}
			return p
		}
		for _, id := range sc.founders {
			s.Procs = append(s.Procs, proc(id))
		}
		if sc.joiner != 0 {
			s.Joins = []simtest.Join{{Round: sc.joinAt, Proc: proc(sc.joiner)}}
		}
		m := play(sim.Config{MaxRounds: sc.rounds}, s)
		if m.InboxGrows = 0; want == nil { // the list's first strategy is the model
			model, want = m, got
			continue
		}
		if !reflect.DeepEqual(m, model) {
			t.Errorf("%s blind=%v %s: metrics differ from the model's:\ngot   %+v\nmodel %+v", tag, blind, st.Name, m, model)
		} else if d := got.diff(want); d != "" {
			t.Errorf("%s blind=%v %s: %s", tag, blind, st.Name, d)
		}
	}
	return model
}

// TestDuplicateRuleMatchesModel plays seeded schedules whose senders
// repeat payloads as broadcasts and unicasts, interleaved every way the
// generator knows. The sizes run from 5 to 128 founders plus a joiner,
// so the slot numbers delivery tags its unicasts with shift mid-run.
// Fixed rows pin the rule's sender scope: a sender's repeat is dropped
// however its sends interleave, and equal payloads of two senders are
// two messages.
func TestDuplicateRuleMatchesModel(t *testing.T) {
	const rounds = 8
	for _, n := range []int{5, 40, 64, 128} {
		for seed := uint64(1); seed <= 4; seed++ {
			rng := ids.NewRand(seed*1000 + uint64(n))
			universe := ids.SortIDs(ids.Sparse(rng, n+3))
			founders, joiner, absent := universe[:n], universe[n], universe[n+1:]
			leaver := founders[rng.Intn(n)]

			pool := []any{
				sim.RegPayload{V: 1}, sim.RegPayload{V: 2}, sim.RegPayload{V: 3},
				sim.TwinPayload{V: 1}, sim.TwinPayload{V: 2},
				sim.ThirdPayload{V: 1}, sim.ThirdPayload{V: 2},
			}
			pick := func() any { return pool[rng.Intn(len(pool))] }
			target := func() ids.ID { // present, joining, leaving or never there
				if rng.Intn(6) == 0 {
					return absent[rng.Intn(len(absent))]
				}
				return universe[rng.Intn(n+1)]
			}
			sc := script{}
			for _, id := range universe[:n+1] {
				for r := 1; r <= rounds; r++ {
					if sc[r] == nil {
						sc[r] = map[ids.ID][]sim.Send{}
					}
					var s []sim.Send
					for k := rng.Intn(5); k > 0; k-- {
						p := pick()
						switch rng.Intn(7) {
						case 0:
							s = append(s, sim.BroadcastPayload(p))
						case 1:
							s = append(s, sim.Unicast(target(), p))
						case 2:
							s = append(s, sim.Unicast(target(), p), sim.BroadcastPayload(p))
						case 3:
							s = append(s, sim.BroadcastPayload(p), sim.Unicast(target(), p))
						case 4: // the same send twice
							to := target()
							s = append(s, sim.Unicast(to, p), sim.Unicast(to, p))
						case 5: // one payload to most of the system, then to all of it
							for _, j := range rng.Perm(n)[:3*n/4] {
								s = append(s, sim.Unicast(founders[j], p))
							}
							s = append(s, sim.BroadcastPayload(p))
						case 6: // unicast, broadcast, the unicast again
							to := target()
							s = append(s, sim.Unicast(to, p), sim.BroadcastPayload(p), sim.Unicast(to, p))
						}
					}
					sc[r][id] = s
				}
			}
			tag := fmt.Sprintf("n=%d seed=%d", n, seed)
			run := scripted{script: sc, rounds: rounds, founders: founders, joiner: joiner, joinAt: 3, leaver: leaver, leaveAt: 5}
			if m := run.play(t, tag, false); m.MessagesDropped == 0 {
				t.Fatalf("%s: schedule produced no duplicates", tag)
			}
		}
	}

	a, b, c, d := ids.ID(10), ids.ID(20), ids.ID(30), ids.ID(40)
	p, q := sim.RegPayload{V: 7}, sim.TwinPayload{V: 1}
	for _, row := range []struct {
		name               string
		sc                 script
		delivered, dropped int64
	}{
		{"unicast, broadcast, unicast again", script{1: {
			a: {sim.Unicast(b, p), sim.BroadcastPayload(p), sim.Unicast(b, p)},
		}}, 4, 2},
		{"two senders, equal payloads", script{1: {
			a: {sim.BroadcastPayload(p), sim.Unicast(c, q), sim.Unicast(c, q)},
			b: {sim.BroadcastPayload(p), sim.Unicast(c, q)},
		}}, 10, 1},
	} {
		m := scripted{script: row.sc, rounds: 2, founders: []ids.ID{a, b, c, d}}.play(t, row.name, false)
		if m.MessagesDelivered != row.delivered || m.MessagesDropped != row.dropped {
			t.Fatalf("%s: delivered/dropped = %d/%d, want %d/%d", row.name, m.MessagesDelivered, m.MessagesDropped, row.delivered, row.dropped)
		}
	}
}

// The assembly system: correct founders 10, 30, 40 (leaves after round
// 1) and 60; faulty founders 20 and 50; a correct joiner 35 and a
// faulty joiner 55 at round 2. Unicasts may also target 99, never
// present. Rounds 1 and 2 carry the decoded sends; the inboxes of
// rounds 2 and 3 are what assembly produced from them.
var asmTargets = []ids.ID{10, 20, 30, 35, 40, 50, 55, 60, 99}

func asmPresent(round int) []ids.ID {
	if round == 1 {
		return []ids.ID{10, 20, 30, 40, 50, 60}
	}
	return []ids.ID{10, 20, 30, 35, 50, 55, 60}
}

// asmChunk encodes one op of the decoder below: the sender is an index
// into asmPresent(round), the target an index into asmTargets, and c
// picks the payload — kind c%3, value c/3.
func asmChunk(round, sender int, op byte, target int, c byte) []byte {
	return []byte{byte(sender<<1 | (round - 1)), byte(target<<3) | op, c}
}

// decodeAssembly reads three bytes per op. Ops: 0 broadcast, 1
// unicast, 2 unicast then broadcast of one source, 3 broadcast then
// unicast, 4 every send twice, 5 and 6 a burst of 6–12 distinct
// payloads in descending key order (a run past the insertion budget,
// sorted by the fallback sort) as broadcasts or as unicasts, 7 a
// unicast and then a broadcast of the same value under another type.
func decodeAssembly(data []byte) script {
	sc := script{1: {}, 2: {}}
	for ; len(data) >= 3; data = data[3:] {
		a, b, c := data[0], data[1], data[2]
		round := 1 + int(a&1)
		senders := asmPresent(round)
		from := senders[int(a>>1)%len(senders)]
		to := asmTargets[int(b>>3)%len(asmTargets)]
		p := sim.AsmPayload(int(c%3), int(c/3))
		var out []sim.Send
		switch b & 7 {
		case 0:
			out = []sim.Send{sim.BroadcastPayload(p)}
		case 1:
			out = []sim.Send{sim.Unicast(to, p)}
		case 2:
			out = []sim.Send{sim.Unicast(to, p), sim.BroadcastPayload(p)}
		case 3:
			out = []sim.Send{sim.BroadcastPayload(p), sim.Unicast(to, p)}
		case 4:
			out = []sim.Send{sim.BroadcastPayload(p), sim.BroadcastPayload(p), sim.Unicast(to, p), sim.Unicast(to, p)}
		case 5, 6:
			for v := 106 + int(c)%7; v > 100; v-- {
				q := sim.AsmPayload(int(c%3), v)
				if b&7 == 5 {
					out = append(out, sim.BroadcastPayload(q))
				} else {
					out = append(out, sim.Unicast(to, q))
				}
			}
		case 7:
			out = []sim.Send{sim.Unicast(to, sim.AsmPayload(int(c%3)+1, int(c/3))), sim.BroadcastPayload(p)}
		}
		sc[round][from] = append(sc[round][from], out...)
	}
	return sc
}

// FuzzInboxAssembly decodes bytes into two rounds of sends and holds
// every inbox assembled from the broadcast log and the exception lanes,
// and the counters, to the model's on every strategy. Under a blind
// adversary the faulty nodes keep no inbox at all, and the counts and
// the correct nodes' inboxes must still be the model's.
func FuzzInboxAssembly(f *testing.F) {
	// Broadcasts only: every inbox is the shared sorted log.
	f.Add(slices.Concat(asmChunk(1, 0, 0, 0, 4), asmChunk(1, 1, 0, 0, 5), asmChunk(1, 3, 5, 0, 7), asmChunk(2, 2, 0, 0, 9)))
	// Unicasts only, to present, leaving, joining and absent targets:
	// lanes sorted in place.
	f.Add(slices.Concat(asmChunk(1, 0, 1, 2, 3), asmChunk(1, 2, 6, 0, 8), asmChunk(1, 4, 1, 3, 3), asmChunk(2, 1, 1, 4, 6), asmChunk(2, 6, 1, 8, 1)))
	// Mixed runs: a logged burst beside unicasts of the same sender,
	// unicast-then-broadcast, broadcast-then-unicast, repeats and ties,
	// with faulty senders and recipients.
	f.Add(slices.Concat(asmChunk(1, 0, 5, 0, 2), asmChunk(1, 0, 1, 2, 10), asmChunk(1, 0, 7, 5, 13),
		asmChunk(1, 1, 2, 0, 4), asmChunk(1, 1, 6, 5, 1), asmChunk(1, 2, 3, 1, 7), asmChunk(1, 4, 4, 2, 7),
		asmChunk(2, 0, 6, 0, 11), asmChunk(2, 0, 0, 0, 12), asmChunk(2, 3, 7, 6, 3), asmChunk(2, 5, 2, 3, 9)))
	// The joiners' first inbox follows a full log; their second holds
	// what round 2 sent them.
	f.Add(slices.Concat(asmChunk(1, 5, 0, 0, 1), asmChunk(1, 4, 0, 0, 2), asmChunk(2, 3, 1, 6, 5), asmChunk(2, 0, 3, 3, 8)))
	// The rule's sender scope: one sender unicasts to 30, broadcasts,
	// then unicasts to 30 again — one payload; and two senders send one
	// payload each as a broadcast and to one target, which are two
	// messages every time.
	f.Add(slices.Concat(asmChunk(1, 0, 1, 2, 5), asmChunk(1, 0, 0, 0, 5), asmChunk(1, 0, 1, 2, 5)))
	// Two payloads of one sender in one lane, descending: the close
	// orders them with no longer run beside them.
	f.Add(slices.Concat(asmChunk(1, 0, 1, 2, 9), asmChunk(1, 0, 1, 2, 6), asmChunk(2, 1, 1, 3, 12), asmChunk(2, 1, 1, 3, 3)))
	f.Add(slices.Concat(asmChunk(1, 0, 0, 0, 4), asmChunk(1, 1, 0, 0, 4), asmChunk(1, 2, 1, 7, 6), asmChunk(1, 3, 1, 7, 6),
		asmChunk(2, 1, 1, 2, 9), asmChunk(2, 2, 1, 2, 9)))
	f.Fuzz(func(t *testing.T, data []byte) {
		run := scripted{script: decodeAssembly(data), rounds: 3, founders: []ids.ID{10, 30, 40, 60}, faulty: []ids.ID{20, 50},
			joiner: 35, joinAt: 2, leaver: 40, leaveAt: 1, fjoins: map[int]ids.ID{2: 55}}
		for _, blind := range []bool{false, true} {
			run.play(t, "", blind)
		}
	})
}
