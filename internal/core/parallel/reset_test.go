package parallel_test

import (
	"reflect"
	"slices"
	"testing"

	"idonly/internal/core/parallel"
	"idonly/internal/core/rotor"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// execution is one machine's view of a seeded ParallelConsensus run: its
// construction arguments and the inbox it is handed each round.
type execution struct {
	self    ids.ID
	inputs  map[parallel.PairID]parallel.Val
	members []ids.ID        // nil: unfiltered
	inboxes [][]sim.Message // sender-sorted, as the runner delivers them
}

// record plays 4–7 correct machines in lockstep and returns what the
// first of them saw. Around the correct broadcasts the network is as
// dirty as the model allows: correct inputs are split between "a", "b"
// and nothing; two Byzantine members send each recipient its own random
// mix of every payload type plus payloads no machine knows; an outsider
// (outside S when the run is filtered) does the same; and a stranger
// that belongs to S stays silent through the freeze and speaks after it.
// Every execution draws its ids from one pool of twelve, so that a
// member of one is the outsider or the stranger of another. A wide
// execution adds forgery on a scale the pool cannot reach: each round,
// each Byzantine member also echoes 40 fresh forged candidates, so the
// machine numbers more than 64 ids — past a sender set's inline word —
// from round 3 on.
func record(seed uint64, rounds int, wide bool) execution {
	rng := ids.NewRand(seed)
	n := 4 + rng.Intn(4)
	all := ids.Sample(rng, ids.Sparse(ids.NewRand(1), 12), n+4)
	roles := slices.Clone(all)
	rng.Shuffle(len(roles), func(i, j int) { roles[i], roles[j] = roles[j], roles[i] })
	correct, byz, stranger := ids.SortIDs(roles[:n]), roles[n:n+2], roles[n+3] // roles[n+2] is the outsider
	var members []ids.ID
	if rng.Bool(0.7) {
		members = slices.Concat(correct, byz, []ids.ID{stranger})
	}
	pairs := 1 + rng.Intn(3)
	vals := []parallel.Val{parallel.V("a"), parallel.V("b"), parallel.Bot}
	machines := make([]*parallel.Machine, n)
	var exec execution
	for i, id := range correct {
		inputs := make(map[parallel.PairID]parallel.Val)
		for p := 1; p <= pairs; p++ {
			if v := vals[rng.Intn(3)]; !v.Bot || rng.Bool(0.3) {
				inputs[parallel.PairID(p)] = v
			}
		}
		machines[i] = parallel.NewMachine(id, inputs, members)
		if i == 0 {
			exec = execution{self: id, inputs: inputs, members: members}
		}
	}
	junk := func() any {
		id := parallel.PairID(1 + rng.Intn(pairs+1)) // one pair nobody input
		x := vals[rng.Intn(3)]
		switch rng.Intn(12) {
		case 0:
			return rotor.Init{}
		case 1:
			return rotor.Echo{P: all[rng.Intn(len(all))]}
		case 2:
			return parallel.Input{ID: id, X: x}
		case 3:
			return parallel.Prefer{ID: id, X: x}
		case 4:
			return parallel.NoPref{ID: id}
		case 5:
			return parallel.StrongPrefer{ID: id, X: x}
		case 6:
			return parallel.NoStrongPref{ID: id}
		case 7, 8:
			return parallel.Opinion{ID: id, X: x}
		case 9:
			return "junk"
		case 10:
			return 42
		}
		return struct{}{}
	}
	inboxes := make([][]sim.Message, n)
	for round := 1; round <= rounds; round++ {
		sends := make([][]any, n)
		for i, m := range machines {
			sends[i] = slices.Clone(m.Step(inboxes[i]))
		}
		exec.inboxes = append(exec.inboxes, inboxes[0])
		for to := range machines {
			var inbox []sim.Message
			for _, from := range all { // ascending: the runner's sender order
				switch i := slices.Index(correct, from); {
				case i >= 0:
					for _, p := range sends[i] {
						inbox = append(inbox, sim.Message{From: from, Payload: p})
					}
				case from != stranger || round >= 4:
					for k := rng.Intn(4); k > 0; k-- {
						inbox = append(inbox, sim.Message{From: from, Payload: junk()})
					}
					if wide && slices.Contains(byz, from) {
						for j := range 40 {
							forged := ids.ID(1<<40 + 64*round + j)
							inbox = append(inbox, sim.Message{From: from, Payload: rotor.Echo{P: forged}})
						}
					}
				}
			}
			inboxes[to] = inbox
		}
	}
	return exec
}

// interleave returns the inbox with its senders' runs shuffled into one
// another: every sender's own messages keep their order, the senders do
// not stay together — the worst an unsorted caller can do to Absorb's
// per-sender cache. (The outcome may differ from the sorted inbox's: a
// no-preference marker counts only if its instance is already known.)
func interleave(rng *ids.Rand, inbox []sim.Message) []sim.Message {
	var runs [][]sim.Message
	for _, msg := range inbox {
		if k := len(runs); k > 0 && runs[k-1][0].From == msg.From {
			runs[k-1] = append(runs[k-1], msg)
		} else {
			runs = append(runs, []sim.Message{msg})
		}
	}
	out := make([]sim.Message, 0, len(inbox))
	for len(runs) > 0 {
		i := rng.Intn(len(runs))
		out = append(out, runs[i][0])
		if runs[i] = runs[i][1:]; len(runs[i]) == 0 {
			runs = slices.Delete(runs, i, i+1)
		}
	}
	return out
}

// checkRecycled drives m — whatever it ran before — and a fresh machine
// through exec and requires them to be indistinguishable after every
// round. Odd rounds' inboxes are interleaved; the fresh machine takes
// them through Step, m through Absorb and Advance.
func checkRecycled(t *testing.T, m *parallel.Machine, exec execution, rng *ids.Rand) {
	t.Helper()
	m.Reset(exec.self, exec.inputs, exec.members)
	fresh := parallel.NewMachine(exec.self, exec.inputs, exec.members)
	for r, inbox := range exec.inboxes {
		if r%2 == 1 {
			inbox = interleave(rng, inbox)
		}
		want := fresh.Step(inbox)
		for _, msg := range inbox {
			m.Absorb(msg.From, msg.Payload)
		}
		got := m.Advance()
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: recycled sends %v, fresh sends %v", r+1, got, want)
		}
		if got, want := m.Outputs(), fresh.Outputs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: recycled outputs %v, fresh %v", r+1, got, want)
		}
		if got, want := m.OutputRounds(), fresh.OutputRounds(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: recycled output rounds %v, fresh %v", r+1, got, want)
		}
		if m.NV() != fresh.NV() || m.Done() != fresh.Done() || m.Round() != fresh.Round() {
			t.Fatalf("round %d: recycled (nv %d, done %v, round %d), fresh (nv %d, done %v, round %d)",
				r+1, m.NV(), m.Done(), m.Round(), fresh.NV(), fresh.Done(), fresh.Round())
		}
	}
}

// forgedCandidates counts the distinct echo candidates outside the
// twelve-id pool that an execution's inboxes name.
func forgedCandidates(exec execution) int {
	seen := map[ids.ID]bool{}
	for _, inbox := range exec.inboxes {
		for _, msg := range inbox {
			if e, ok := msg.Payload.(rotor.Echo); ok && e.P >= 1<<40 {
				seen[e.P] = true
			}
		}
	}
	return len(seen)
}

// TestMachineResetEqualsFresh recycles one machine through sixty
// executions, each cut off at a different round, and compares it with a
// fresh machine throughout. Every tenth execution is wide, so the small
// one after it runs on sets and an index that have been past 64 ids. It
// also checks that the executions are the dirty ones the comparison is
// meant for: some are abandoned with an instance undecided, some decide
// a value, some decide ⊥ only.
func TestMachineResetEqualsFresh(t *testing.T) {
	rng := ids.NewRand(99)
	m := parallel.NewMachine(1, nil, nil)
	var unfinished, withOutput, withoutOutput int
	for seed := uint64(1); seed <= 60; seed++ {
		exec := record(seed, 3+int(seed*7)%25, seed%10 == 0)
		if seed%10 == 0 && forgedCandidates(exec) <= 64 {
			t.Fatalf("wide execution %d forged only %d candidates", seed, forgedCandidates(exec))
		}
		checkRecycled(t, m, exec, rng)
		switch {
		case !m.Done():
			unfinished++
		case len(m.Outputs()) > 0:
			withOutput++
		default:
			withoutOutput++
		}
	}
	if unfinished == 0 || withOutput == 0 || withoutOutput == 0 {
		t.Fatalf("executions too clean: %d unfinished, %d with output, %d without", unfinished, withOutput, withoutOutput)
	}
}

// FuzzMachineReset is the same comparison over fuzzed seeds: a machine
// runs the first cut rounds of one execution, wide or not, is Reset, and
// must then match a fresh machine on another.
func FuzzMachineReset(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint8(0), false)
	f.Add(uint64(3), uint64(4), uint8(4), false) // cut inside phase 1
	f.Add(uint64(7), uint64(11), uint8(9), false)
	f.Add(uint64(20), uint64(5), uint8(30), false) // ran to the end
	f.Add(uint64(1<<40+17), uint64(1<<33), uint8(13), false)
	f.Add(uint64(6), uint64(8), uint8(12), true) // past 64 ids, then a small execution
	f.Fuzz(func(t *testing.T, dirtySeed, cleanSeed uint64, cut uint8, wide bool) {
		dirty := record(dirtySeed, int(cut%31), wide)
		m := parallel.NewMachine(dirty.self, dirty.inputs, dirty.members)
		for _, inbox := range dirty.inboxes {
			m.Step(inbox)
		}
		checkRecycled(t, m, record(cleanSeed, 22, false), ids.NewRand(dirtySeed^cleanSeed))
	})
}

// TestAbsorbChecksEverySender pins what Absorb's one-entry verdict cache
// must not do: carry a sender's verdict over to another sender when the
// inbox is not sender-sorted, or over a Reset.
func TestAbsorbChecksEverySender(t *testing.T) {
	all := ids.Sparse(ids.NewRand(4), 5)
	self, member, stranger, outsider := all[0], all[1], all[2], all[3]
	m := parallel.NewMachine(self, nil, []ids.ID{self, member, stranger})
	m.Advance()
	for i := 0; i < 3; i++ { // member and outsider alternate
		m.Absorb(member, rotor.Init{})
		m.Absorb(outsider, rotor.Init{})
	}
	if got := m.Advance(); !slices.Equal(got, []any{rotor.Echo{P: member}}) {
		t.Fatalf("round 2 echoes %v, want only the member's init", got)
	}
	m.Advance() // round 3 freezes nv
	if m.NV() != 1 {
		t.Fatalf("nv = %d, want 1: the outsider must not count", m.NV())
	}
	// Round 4 is phase 1's round B, where an input may still open an
	// instance — but not the input of a member first heard after the freeze.
	m.Absorb(member, "junk")
	m.Absorb(stranger, parallel.Input{ID: 9, X: parallel.V("x")})
	m.Absorb(member, "junk")
	if got := m.Advance(); len(got) != 0 || !m.Done() {
		t.Fatalf("a post-freeze stranger opened an instance: sends %v, done %v", got, m.Done())
	}

	// The same sender, the same round, a different S: the verdict of the
	// previous execution must not survive Reset.
	m = parallel.NewMachine(self, nil, []ids.ID{self, member})
	m.Advance()
	m.Absorb(member, rotor.Init{})
	m.Reset(self, nil, []ids.ID{self})
	m.Advance()
	m.Absorb(member, rotor.Init{})
	if got := m.Advance(); len(got) != 0 {
		t.Fatalf("round 2 echoes %v after Reset dropped the sender from S", got)
	}
}
