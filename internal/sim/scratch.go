// Scratch-retention bounds: what a flood round may pin, and for how
// long.
//
// The runner's per-round scratch — the double-buffered sort-key arenas
// and the duplicate-filter map — grows to the largest
// round it ever served and used to stay that size for the rest of the
// process. For a short-lived `idonly sweep` run that is fine; for a
// resident `idonly serve` process a single 100k-node sweep would leave
// megabytes pinned under every later 7-node run. The gauge below tracks
// a decaying high-water mark of actual per-round usage, and the round
// flip releases any scratch whose capacity is far above it.
//
// What is deliberately NOT trimmed: the delivery buffers — the per-node
// lanes, the broadcast log and the merge scratch. The growth of the
// first two is an observable (Metrics.InboxGrows, "stops increasing
// after warm-up"), all three are per runner, and the lanes are
// slab-allocated, so they are reclaimed wholesale when the run ends.
package sim

const (
	// arenaRetainFloor is the arena capacity always retained: trims
	// below it cost more in re-growth than they save.
	arenaRetainFloor = 64 << 10 // bytes

	// filterRetainFloor is the duplicate-filter size always retained
	// across rounds, in sources (distinct (sender, payload) per round —
	// about n times fewer than deliveries under broadcast). A retained
	// source holds a map entry, its pooled recipSet and that set's
	// 128-byte vec chunk, ≈250 bytes, so the floor keeps about half a
	// megabyte, as the per-delivery filter's 8192 entries did.
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
