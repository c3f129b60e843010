package rotor_test

import (
	"reflect"
	"testing"

	"idonly/internal/core/rotor"
	"idonly/internal/ids"
	"idonly/internal/quorum"
	"idonly/internal/sim"
)

// Lemma-level tests against the Core state machine directly.

// testCore is a Core with its own index, absorbing by id.
type testCore struct {
	*rotor.Core
	idx *quorum.Index
}

func newCore(self ids.ID) testCore {
	idx := new(quorum.Index)
	return testCore{rotor.NewCore(self, idx), idx}
}

func (c testCore) init(from ids.ID)    { c.AbsorbInit(c.idx.Of(from)) }
func (c testCore) echo(from, p ids.ID) { c.AbsorbEcho(c.idx.Of(from), p) }

func TestCoreLemma6CandidateRelay(t *testing.T) {
	// Lemma 6: if a correct node adds p to Cv in round r, every correct
	// node adds p by round r+1. Driven at the Core level: node A gets
	// 2nv/3 echoes for p and admits it; its relay gives node B the
	// missing weight one round later.
	nv := 6 // imagine 6 members: 4 correct (a,b,c,d), 2 faulty
	p := ids.ID(999)
	coreA := newCore(1)
	coreB := newCore(2)

	// Round r: A has 4 echo witnesses for p (the 2 faulty + 2 correct
	// that happened to reach it); B has only 2 (exactly nv/3 = relay
	// threshold, below admission).
	for _, from := range []ids.ID{11, 12, 3, 4} {
		coreA.echo(from, p)
	}
	for _, from := range []ids.ID{3, 4} {
		coreB.echo(from, p)
	}
	relaysA, _ := coreA.Advance(nv)
	if len(coreA.Candidates()) != 1 || coreA.Candidates()[0] != p {
		t.Fatalf("A did not admit p: %v", coreA.Candidates())
	}
	// A relays in the same round it admits (Alg. 2 line 8 precedes 12).
	if len(relaysA) != 1 || relaysA[0] != p {
		t.Fatalf("A relays = %v, want [p]", relaysA)
	}
	relaysB, _ := coreB.Advance(nv)
	if len(relaysB) != 1 || relaysB[0] != p {
		t.Fatalf("B relays = %v, want [p] (it crossed nv/3)", relaysB)
	}
	if len(coreB.Candidates()) != 0 {
		t.Fatalf("B admitted too early: %v", coreB.Candidates())
	}

	// Round r+1: B receives the relayed echoes from A and the other
	// correct relays (Lemma 4 guarantees ≥ nv/3 correct echoes → here
	// all four correct nodes relay, so B reaches 2nv/3).
	coreB.echo(1, p)
	coreB.echo(5, p)
	coreB.Advance(nv)
	if len(coreB.Candidates()) != 1 || coreB.Candidates()[0] != p {
		t.Fatalf("B did not admit p by round r+1 (Lemma 6): %v", coreB.Candidates())
	}
}

func TestCoreSelectionWrapsInIdOrder(t *testing.T) {
	core := newCore(1)
	nv := 3
	// Admit three candidates at once.
	for _, p := range []ids.ID{30, 10, 20} {
		core.echo(1, p)
		core.echo(2, p)
		core.echo(3, p)
	}
	var seq []ids.ID
	for i := 0; i < 4; i++ {
		_, sel := core.Advance(nv)
		if !sel.HasCoord {
			t.Fatal("no coordinator despite candidates")
		}
		seq = append(seq, sel.Coord)
		if i == 3 && !sel.Reselected {
			t.Fatal("fourth selection must be a re-selection")
		}
	}
	want := []ids.ID{10, 20, 30, 10}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("selection sequence %v, want %v (ascending id order, wrapping)", seq, want)
		}
	}
}

func TestCoreThresholdsUseExactArithmetic(t *testing.T) {
	// nv = 7: relay needs 3 echoes (3·3 ≥ 7), admission needs 5 (15 ≥ 14).
	core := newCore(1)
	p := ids.ID(50)
	core.echo(10, p)
	core.echo(11, p)
	if relays, _ := core.Advance(7); len(relays) != 0 {
		t.Fatalf("2 echoes relayed at nv=7: %v", relays)
	}
	core.echo(12, p)
	if relays, _ := core.Advance(7); len(relays) != 1 {
		t.Fatal("3 echoes must relay at nv=7")
	}
	core.echo(13, p)
	core.Advance(7)
	if len(core.Candidates()) != 0 {
		t.Fatal("4 echoes admitted at nv=7 (needs 5)")
	}
	core.echo(14, p)
	core.Advance(7)
	if len(core.Candidates()) != 1 {
		t.Fatal("5 echoes must admit at nv=7")
	}
	// sanity against the quorum package used inside
	if !quorum.AtLeastTwoThirds(5, 7) || quorum.AtLeastTwoThirds(4, 7) {
		t.Fatal("quorum arithmetic drifted")
	}
}

func TestStandaloneRotorNoCoordOnEmptyCv(t *testing.T) {
	// A node that hears nothing (n=1 pathological case): Cv contains
	// only itself after init; selection works and terminates quickly.
	nd := rotor.New(7, 1.5)
	r := sim.NewRunner(sim.Config{StopWhenAllDecided: true}, []sim.Process{nd}, nil, nil)
	r.Run(nil)
	if !nd.Decided() {
		t.Fatal("lone rotor node did not terminate")
	}
	sel := nd.Selected()
	for _, s := range sel {
		if s != 7 {
			t.Fatalf("lone node selected %d", s)
		}
	}
}

// driveCore runs one seeded life of a core — inits, the round-2 echo
// list, then rounds of echoes from up to senders senders for cands
// candidates and an Advance each — and calls observe with everything
// the core lets a caller see after each step.
func driveCore(c testCore, seed uint64, rounds, senders, cands int, observe func(step int, view ...any)) {
	rng := ids.NewRand(seed)
	for i := rng.Intn(8); i > 0; i-- {
		c.init(ids.ID(1 + rng.Intn(9)))
	}
	observe(0, append([]ids.ID(nil), c.EchoInits()...))
	for r := 1; r <= rounds; r++ {
		for i := rng.Intn(6*cands + 6); i > 0; i-- {
			c.echo(ids.ID(100+rng.Intn(senders)), ids.ID(1+rng.Intn(cands)))
		}
		relays, sel := c.Advance(10 + rng.Intn(30))
		observe(r, append([]ids.ID(nil), relays...), sel, c.Candidates(), c.Selected())
	}
}

// checkLife drives recycled and a new core through the same life and
// requires them to be indistinguishable, step by step.
func checkLife(t *testing.T, recycled testCore, self ids.ID, seed uint64, rounds int) {
	t.Helper()
	var want [][]any
	driveCore(newCore(self), seed, rounds, 40, 9, func(_ int, view ...any) { want = append(want, view) })
	driveCore(recycled, seed, rounds, 40, 9, func(step int, view ...any) {
		if !reflect.DeepEqual(view, want[step]) {
			t.Fatalf("life %d step %d: recycled core shows %v, fresh core %v", seed, step, view, want[step])
		}
	})
}

// TestCoreResetEqualsFresh recycles one core through thirty lives of
// different lengths and requires each to be indistinguishable, step by
// step, from the same life on a new core.
func TestCoreResetEqualsFresh(t *testing.T) {
	recycled := newCore(1)
	for seed := uint64(1); seed <= 30; seed++ {
		self := ids.ID(1 + seed%9)
		recycled.idx.Reset()
		recycled.Reset(self)
		checkLife(t, recycled, self, seed, int(seed%12))
	}
}

// TestCoreResetAcrossInlineBoundary: a life that numbers more than 64
// ids — 120 senders and 70 candidates, most of them forged, past a
// sender set's inline word — leaves nothing behind in Reset. The
// numbering is not observable either: the next life matches a new core
// whether or not the owner resets the index with the core.
func TestCoreResetAcrossInlineBoundary(t *testing.T) {
	for _, resetIndex := range []bool{true, false} {
		recycled := newCore(1)
		for seed := uint64(1); seed <= 10; seed++ {
			driveCore(recycled, seed, 12, 120, 70, func(int, ...any) {})
			if n := recycled.idx.Len(); n <= 64 {
				t.Fatalf("life %d numbered only %d ids", seed, n)
			}
			if len(recycled.Candidates()) == 0 {
				t.Fatalf("life %d admitted no candidate", seed)
			}
			self := ids.ID(1 + seed%9)
			if resetIndex {
				recycled.idx.Reset()
			}
			recycled.Reset(self)
			checkLife(t, recycled, self, seed+100, 9)
		}
	}
}
