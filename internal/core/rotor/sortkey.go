package rotor

import "idonly/internal/sim"

// Typed sort keys (sim.SortKeyer): byte-identical to fmt.Sprint of each
// payload. The contract — and the differential tests enforcing it —
// lives in internal/sim's sortkey.go and internal/sortkeys.

// AppendSortKey implements sim.SortKeyer.
func (Init) AppendSortKey(dst []byte) []byte { return append(dst, "{}"...) }

// AppendSortKey implements sim.SortKeyer.
func (m Echo) AppendSortKey(dst []byte) []byte {
	dst = sim.AppendUint(append(dst, '{'), uint64(m.P))
	return append(dst, '}')
}

// AppendSortKey implements sim.SortKeyer.
func (m Opinion) AppendSortKey(dst []byte) []byte {
	dst = sim.AppendFloat(append(dst, '{'), m.X)
	return append(dst, '}')
}
