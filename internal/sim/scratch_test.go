package sim

// Scratch-retention bounds (scratch.go): one flood round must not pin
// its peak arena or duplicate-filter table for the rest of a long run,
// on either instantiation of the core. These are allocator tests, so
// they live inside the package and inspect the runner's buffers
// directly — nothing here is observable through digests or canonical
// reports.

import (
	"fmt"
	"testing"

	"idonly/internal/ids"
)

func TestScratchGaugeTracksHighWater(t *testing.T) {
	var g scratchGauge
	g.observe(1000)
	if g.hw != 1000 {
		t.Fatalf("hw = %d after observe(1000), want 1000", g.hw)
	}
	g.observe(5000) // growth is immediate
	if g.hw != 5000 {
		t.Fatalf("hw = %d after observe(5000), want 5000", g.hw)
	}
	for i := 0; i < 100; i++ { // decay is gradual
		g.observe(0)
	}
	if g.hw > 5 {
		t.Fatalf("hw = %d after 100 idle rounds, want near 0", g.hw)
	}
	if g.oversized(2*arenaRetainFloor, arenaRetainFloor) != true {
		t.Fatal("capacity above floor and 4x high-water should be oversized")
	}
	if g.oversized(arenaRetainFloor, arenaRetainFloor) {
		t.Fatal("capacity at the floor is never oversized")
	}
	g.observe(1 << 20)
	if g.oversized(2<<20, arenaRetainFloor) {
		t.Fatal("capacity within 4x of high-water is not oversized")
	}
	if got := g.retainTarget(arenaRetainFloor); got != 2<<20 {
		t.Fatalf("retainTarget = %d, want 2*hw = %d", got, 2<<20)
	}
}

// bigKeyPayload renders a sort key of pad+O(1) bytes, unique per seq.
// It is registered, so it serves as a boxed payload and as the typed
// instantiation's wire type.
type bigKeyPayload struct {
	seq int
	pad int
}

func (p bigKeyPayload) AppendSortKey(dst []byte) []byte {
	dst = append(dst, fmt.Sprintf("{%d ", p.seq)...)
	for i := 0; i < p.pad; i++ {
		dst = append(dst, 'x')
	}
	return append(dst, '}')
}

var bigKeyCodec = Codec[bigKeyPayload]{
	Wrap:   func(p any) (bigKeyPayload, bool) { v, ok := p.(bigKeyPayload); return v, ok },
	Unwrap: func(m bigKeyPayload) any { return m },
}

// floodProc broadcasts perRound distinct payloads for the first
// floodRounds rounds, then goes quiet. With selfFirst it unicasts each
// payload to itself before the broadcast, so the broadcast finds its
// source already holding a slot and upgrades its recipient set to a
// bitmap. It steps on either instantiation.
type floodProc struct {
	id          ids.ID
	floodRounds int
	perRound    int
	pad         int
	selfFirst   bool
}

func (p *floodProc) ID() ids.ID    { return p.id }
func (p *floodProc) Decided() bool { return false }
func (p *floodProc) Output() any   { return nil }
func (p *floodProc) StepTyped(round int, _ []MsgT[bigKeyPayload]) []SendT[bigKeyPayload] {
	if round > p.floodRounds {
		return nil
	}
	out := make([]SendT[bigKeyPayload], 0, 2*p.perRound)
	for i := 0; i < p.perRound; i++ {
		m := bigKeyPayload{seq: int(p.id)*1_000_000 + round*10_000 + i, pad: p.pad}
		if p.selfFirst {
			out = append(out, UnicastT(p.id, m))
		}
		out = append(out, BroadcastT(m))
	}
	return out
}
func (p *floodProc) Step(round int, _ []Message) []Send {
	var out []Send
	for _, s := range p.StepTyped(round, nil) {
		out = append(out, Send{To: s.To, Payload: s.Payload})
	}
	return out
}

// floodRunners builds the same flood system on the boxed and on the
// typed instantiation.
func floodRunners(nProcs, floodRounds, perRound, pad int, selfFirst bool) (*TypedRunner[boxedProc, any], *TypedRunner[*floodProc, bigKeyPayload]) {
	var boxed []Process
	var typed []*floodProc
	for i := 0; i < nProcs; i++ {
		boxed = append(boxed, &floodProc{id: ids.ID(i + 1), floodRounds: floodRounds, perRound: perRound, pad: pad, selfFirst: selfFirst})
		typed = append(typed, &floodProc{id: ids.ID(i + 1), floodRounds: floodRounds, perRound: perRound, pad: pad, selfFirst: selfFirst})
	}
	cfg := Config{MaxRounds: 1 << 20}
	return NewRunner(cfg, boxed, nil, nil).TypedRunner, NewTypedRunner(cfg, typed, nil, nil, bigKeyCodec)
}

func arenaShrinksAfterFlood[P ProcessT[M], M comparable](t *testing.T, r *TypedRunner[P, M]) {
	for i := 0; i < 3; i++ {
		r.StepRound()
	}
	peak := max(cap(r.curArena), cap(r.nxtArena))
	if peak < 4*arenaRetainFloor {
		t.Fatalf("flood arena peaked at %d, too small to exercise the trim (floor %d)", peak, arenaRetainFloor)
	}
	for i := 0; i < 60; i++ { // quiet rounds: high-water decays, trim fires
		r.StepRound()
	}
	for _, c := range []int{cap(r.curArena), cap(r.nxtArena)} {
		if c >= peak/2 {
			t.Fatalf("arena capacity %d retained after 60 quiet rounds (flood peak %d)", c, peak)
		}
	}
}

func TestRunnerArenaShrinksAfterFlood(t *testing.T) {
	// 4 procs x 4 sends x 16KiB keys = ~256KiB of arena per flood round.
	boxed, typed := floodRunners(4, 3, 4, 16<<10, false)
	t.Run("boxed", func(t *testing.T) { arenaShrinksAfterFlood(t, boxed) })
	t.Run("typed", func(t *testing.T) { arenaShrinksAfterFlood(t, typed) })
}

func dedupShrinksAfterFlood[P ProcessT[M], M comparable](t *testing.T, r *TypedRunner[P, M]) {
	for i := 0; i < 30; i++ {
		r.StepRound()
	}
	if r.filter.alloc <= filterRetainFloor {
		t.Fatalf("flood sized the filter to %d entries, too small to exercise the trim (floor %d)", r.filter.alloc, filterRetainFloor)
	}
	floodSets := cap(r.filter.sets)
	if floodSets < 4800 {
		t.Fatalf("flood pooled %d recipient sets, want one per source (4800)", floodSets)
	}
	for i := 0; i < 60; i++ {
		r.StepRound()
	}
	if r.filter.alloc > filterRetainFloor {
		t.Fatalf("duplicate filter still sized for %d entries after 60 quiet rounds (floor %d)", r.filter.alloc, filterRetainFloor)
	}
	if c := cap(r.filter.sets); c >= floodSets/2 {
		t.Fatalf("%d pooled recipient sets retained after 60 quiet rounds (flood pooled %d)", c, floodSets)
	}
}

func TestRunnerDedupShrinksAfterFlood(t *testing.T) {
	// The filter counts sources, not deliveries: 4 procs x 1200 distinct
	// broadcasts = 4800 filter entries per round (19200 deliveries),
	// above filterRetainFloor.
	boxed, typed := floodRunners(4, 30, 1200, 4, false)
	t.Run("boxed", func(t *testing.T) { dedupShrinksAfterFlood(t, boxed) })
	t.Run("typed", func(t *testing.T) { dedupShrinksAfterFlood(t, typed) })
}

func masksShrinkAfterFlood[P ProcessT[M], M comparable](t *testing.T, r *TypedRunner[P, M]) {
	for i := 0; i < 3; i++ {
		r.StepRound()
	}
	r.StepRound() // the flip returns the last flood round's bitmaps
	peak := len(r.filter.maskFree)
	if peak < 200 {
		t.Fatalf("flood freed %d pooled bitmaps, want one per source (200)", peak)
	}
	for i := 0; i < 60; i++ { // quiet rounds: the bitmap gauge decays
		r.StepRound()
	}
	if got, want := len(r.filter.maskFree), r.filter.maskGauge.retainTarget(4); got != want || got >= peak {
		t.Fatalf("%d pooled bitmaps retained after 60 quiet rounds, want the retain target %d (flood freed %d)", got, want, peak)
	}
}

func TestRunnerMasksShrinkAfterFlood(t *testing.T) {
	// 100 slots need two-word bitmaps: each of the 100 procs' 2 sources
	// per flood round is upgraded to a pooled mask, 200 in all.
	boxed, typed := floodRunners(100, 3, 2, 4, true)
	t.Run("boxed", func(t *testing.T) { masksShrinkAfterFlood(t, boxed) })
	t.Run("typed", func(t *testing.T) { masksShrinkAfterFlood(t, typed) })
}
