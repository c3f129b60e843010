package baseline

import "idonly/internal/sim"

// Typed sort keys (sim.SortKeyer): byte-identical to fmt.Sprint of each
// payload. The known-n,f baselines share the wire with the id-only
// protocols in the comparison experiments (E5/E6) and with the
// adversaries that speak both dialects, so they join the fast delivery
// path too.

// AppendSortKey implements sim.SortKeyer.
func (m STInitial) AppendSortKey(dst []byte) []byte {
	dst = append(append(dst, '{'), m.M...)
	dst = sim.AppendUint(append(dst, ' '), uint64(m.S))
	return append(dst, '}')
}

// AppendSortKey implements sim.SortKeyer.
func (m STEcho) AppendSortKey(dst []byte) []byte {
	dst = append(append(dst, '{'), m.M...)
	dst = sim.AppendUint(append(dst, ' '), uint64(m.S))
	return append(dst, '}')
}

// AppendSortKey implements sim.SortKeyer.
func (m KInput) AppendSortKey(dst []byte) []byte {
	dst = sim.AppendFloat(append(dst, '{'), m.X)
	return append(dst, '}')
}

// AppendSortKey implements sim.SortKeyer.
func (m KPrefer) AppendSortKey(dst []byte) []byte {
	dst = sim.AppendFloat(append(dst, '{'), m.X)
	return append(dst, '}')
}

// AppendSortKey implements sim.SortKeyer.
func (m KStrong) AppendSortKey(dst []byte) []byte {
	dst = sim.AppendFloat(append(dst, '{'), m.X)
	return append(dst, '}')
}

// AppendSortKey implements sim.SortKeyer.
func (m KKing) AppendSortKey(dst []byte) []byte {
	dst = sim.AppendFloat(append(dst, '{'), m.X)
	return append(dst, '}')
}

// AppendSortKey implements sim.SortKeyer.
func (m AValue) AppendSortKey(dst []byte) []byte {
	dst = sim.AppendFloat(append(dst, '{'), m.X)
	return append(dst, '}')
}
