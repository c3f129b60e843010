//go:build race

package sim

// raceEnabled gates allocation-count assertions: the race detector's
// instrumentation allocates on its own, so alloc pins only hold in
// uninstrumented builds.
const raceEnabled = true
