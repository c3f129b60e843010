package approx

import "idonly/internal/sim"

// Typed sort key (sim.SortKeyer): byte-identical to fmt.Sprint of the
// payload.

// AppendSortKey implements sim.SortKeyer.
func (m Value) AppendSortKey(dst []byte) []byte {
	dst = sim.AppendFloat(append(dst, '{'), m.X)
	return append(dst, '}')
}
