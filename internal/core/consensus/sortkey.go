package consensus

import "idonly/internal/sim"

// Typed sort keys (sim.SortKeyer): byte-identical to fmt.Sprint of each
// payload.

// AppendSortKey implements sim.SortKeyer.
func (m Input) AppendSortKey(dst []byte) []byte {
	dst = sim.AppendFloat(append(dst, '{'), m.X)
	return append(dst, '}')
}

// AppendSortKey implements sim.SortKeyer.
func (m Prefer) AppendSortKey(dst []byte) []byte {
	dst = sim.AppendFloat(append(dst, '{'), m.X)
	return append(dst, '}')
}

// AppendSortKey implements sim.SortKeyer.
func (m StrongPrefer) AppendSortKey(dst []byte) []byte {
	dst = sim.AppendFloat(append(dst, '{'), m.X)
	return append(dst, '}')
}
