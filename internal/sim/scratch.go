// Scratch-retention bounds: what a flood round may pin, and for how
// long.
//
// The runner's per-round scratch — the double-buffered sort-key arenas,
// the duplicate filter's index and its pooled recipient bitmaps — grows
// to the largest round it has served. Scratch never outlives its run:
// each Scenario.run builds its own runner. The reason to trim lies
// inside one run. Without it, a flood round's filter index would stay
// at peak size and be cleared at that size on every later round. The
// gauge below tracks a decaying high-water mark of actual per-round
// usage, and the round flip releases any scratch whose capacity is far
// above it.
//
// Counted with a probe on each trim: the filter trim fires 20 times
// over the large grid, twice over the scale grid, 8 times in
// `idonly exp -seed 42`, and never over the small or medium grid. The
// arena and bitmap trims fire in no run, only in scratch_test.go's
// flood tests.
//
// What is deliberately NOT trimmed: the delivery buffers — the
// broadcast log, the lane bucket with the array it scatters into, and
// the merge scratch. Their growth is an observable (Metrics.InboxGrows,
// "stops increasing after warm-up"), and each is a handful of arrays
// owned by one runner, so they are reclaimed when the run ends.
package sim

const (
	// arenaRetainFloor is the arena capacity always retained: trims
	// below it cost more in re-growth than they save.
	arenaRetainFloor = 64 << 10 // bytes

	// filterRetainFloor is the duplicate-filter size always retained
	// across rounds, in sources (distinct (sender, payload) per round —
	// about n times fewer than deliveries under broadcast). A retained
	// source holds index slots, its key and hash, its pooled recipSet
	// and that set's 128-byte vec chunk, ≈250 bytes, so the floor keeps
	// about half a megabyte, as the per-delivery filter's 8192 entries
	// did.
	filterRetainFloor = 1 << 11

	// scratchSlack is the capacity-to-usage ratio above which scratch
	// counts as oversized and is released at the next flip.
	scratchSlack = 4
)

// scratchGauge tracks a decaying high-water mark of one scratch
// structure's per-round usage. observe feeds it one round's usage:
// growth registers immediately, while the mark decays toward quieter
// rounds by an eighth of the gap per round — so one flood round stops
// justifying its capacity a few dozen rounds later, but steady traffic
// never triggers churn.
type scratchGauge struct {
	hw int
}

func (g *scratchGauge) observe(used int) {
	if used >= g.hw {
		g.hw = used
		return
	}
	g.hw -= (g.hw - used + 7) / 8
}

// oversized reports whether a capacity is worth releasing: above the
// retain floor and more than scratchSlack times the decayed mark.
func (g *scratchGauge) oversized(capacity, floor int) bool {
	return capacity > floor && capacity > scratchSlack*g.hw
}

// retainTarget is the capacity to re-seed after a release: twice the
// decayed mark, floored.
func (g *scratchGauge) retainTarget(floor int) int {
	if t := 2 * g.hw; t > floor {
		return t
	}
	return floor
}
