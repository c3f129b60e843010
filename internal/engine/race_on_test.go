//go:build race

package engine

// raceEnabled gates allocation-count assertions: the race detector's
// instrumentation allocates on its own, so alloc pins only hold in
// uninstrumented builds.
const raceEnabled = true
