package dynamic

import (
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"idonly/internal/core/parallel"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// runNoise is a blind adversary whose every faulty node, every round,
// says both Present and Absent (some rounds Absent alone) and witnesses
// several events tagged with that round, as a correct node tags its
// own. The texts are chosen so that the smallest sort key is neither
// the shortest text nor the first in text order: a uvarint length of
// 256 encodes below one of 255.
type runNoise struct{}

func (runNoise) Blind() {}

func (runNoise) Step(_ ids.ID, round int, _ []sim.Message) []sim.Send {
	out := []sim.Send{sim.BroadcastPayload(Absent{})}
	if round%5 != 0 {
		out = append(out, sim.BroadcastPayload(Present{}))
	}
	texts := []string{strings.Repeat("a", 255), strings.Repeat("b", 256)}
	if round%2 == 1 {
		texts = append(texts, "zz")
	}
	for _, m := range texts {
		out = append(out, sim.BroadcastPayload(EventMsg{M: m, R: round}))
	}
	return out
}

// stepRecord is what one StepTyped call left behind.
type stepRecord struct {
	members []ids.ID
	inputs  map[parallel.PairID]parallel.Val
	sends   []sim.SendT[Wire]
}

// reorder hands its node each inbox with every sender's run reordered
// (reverse, a seeded shuffle, or left as sorted) and records each step.
type reorder struct {
	*Node
	mode  string
	rng   *ids.Rand
	buf   []sim.MsgT[Wire]
	steps []stepRecord
}

func (p *reorder) StepTyped(round int, inbox []sim.MsgT[Wire]) []sim.SendT[Wire] {
	p.buf = append(p.buf[:0], inbox...)
	for lo, hi := 0, 0; lo < len(p.buf); lo = hi {
		for hi = lo + 1; hi < len(p.buf) && p.buf[hi].From == p.buf[lo].From; hi++ {
		}
		run := p.buf[lo:hi]
		switch p.mode {
		case "reversed":
			slices.Reverse(run)
		case "shuffled":
			p.rng.Shuffle(len(run), func(i, j int) { run[i], run[j] = run[j], run[i] })
		}
	}
	sends := p.Node.StepTyped(round, p.buf)
	p.steps = append(p.steps, stepRecord{
		members: slices.Clone(p.members),
		inputs:  maps.Clone(p.inputs),
		sends:   slices.Clone(sends),
	})
	return sends
}

// TestSenderRunOrderIsNotInformation: Algorithm 6 reads one sender's
// run of a round as a set. Fed each sender's run reversed or shuffled,
// every node — founders, a leaver and a joiner, beside faulty nodes
// that announce and retract themselves and witness several events a
// round — keeps the members, acks, session inputs and chain it keeps on
// the sorted inbox, round by round.
func TestSenderRunOrderIsNotInformation(t *testing.T) {
	const rounds = 40
	all := ids.Sparse(ids.NewRand(43), 9)
	founders, joiner := all[:8], all[8]
	correct, faulty := founders[:6], founders[6:]
	run := func(mode string) []*reorder {
		var procs []*reorder
		for i, id := range correct {
			witness := map[int][]string{}
			for r := 1 + i; r <= rounds; r += 3 {
				witness[r] = []string{"e" + string(rune('a'+i)), "f" + string(rune('a'+i))}
			}
			leaveAt := 0
			if i == len(correct)-1 {
				leaveAt = 15
			}
			nd := New(Config{ID: id, Founders: founders, Witness: witness, LeaveAt: leaveAt})
			procs = append(procs, &reorder{Node: nd, mode: mode, rng: ids.NewRand(uint64(i))})
		}
		r := sim.NewTypedRunner(sim.Config{MaxRounds: rounds}, procs, faulty, runNoise{}, WireCodec())
		late := &reorder{Node: New(Config{ID: joiner}), mode: mode, rng: ids.NewRand(99)}
		r.ScheduleJoin(6, late)
		r.Run(nil)
		return append(procs, late)
	}
	sorted := run("sorted")
	if len(sorted[0].Chain()) == 0 {
		t.Fatal("the sorted run ordered no events")
	}
	// A faulty sender's input is its event with the smallest sort key:
	// "zz" when it sent one, else the 256-byte text.
	checked := 0
	for k, st := range sorted[0].steps {
		want := strings.Repeat("b", 256)
		if round := k + 1; (round-1)%2 == 1 {
			want = "zz"
		}
		for _, f := range faulty {
			if v, ok := st.inputs[parallel.PairID(f)]; ok {
				if v.S != want {
					t.Fatalf("round %d: faulty %d's input is %.8q…, want %.8q…", k+1, f, v.S, want)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no faulty event became a session input")
	}
	for _, mode := range []string{"reversed", "shuffled"} {
		got := run(mode)
		for i, p := range got {
			want := sorted[i]
			if len(p.steps) != len(want.steps) {
				t.Fatalf("%s: node %d stepped %d times, want %d", mode, p.ID(), len(p.steps), len(want.steps))
			}
			for k := range p.steps {
				if !reflect.DeepEqual(p.steps[k], want.steps[k]) {
					t.Fatalf("%s: node %d step %d differs from the sorted inbox's:\n got %+v\nwant %+v",
						mode, p.ID(), k+1, p.steps[k], want.steps[k])
				}
			}
			if !reflect.DeepEqual(p.Chain(), want.Chain()) {
				t.Fatalf("%s: node %d chain differs:\n got %v\nwant %v", mode, p.ID(), p.Chain(), want.Chain())
			}
		}
	}
}
