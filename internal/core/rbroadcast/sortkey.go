package rbroadcast

import "idonly/internal/sim"

// Typed sort keys (sim.SortKeyer): byte-identical to fmt.Sprint of each
// payload.

// AppendSortKey implements sim.SortKeyer.
func (m Initial) AppendSortKey(dst []byte) []byte {
	dst = append(append(dst, '{'), m.M...)
	dst = sim.AppendUint(append(dst, ' '), uint64(m.S))
	return append(dst, '}')
}

// AppendSortKey implements sim.SortKeyer.
func (Present) AppendSortKey(dst []byte) []byte { return append(dst, "{}"...) }

// AppendSortKey implements sim.SortKeyer.
func (m Echo) AppendSortKey(dst []byte) []byte {
	dst = append(append(dst, '{'), m.M...)
	dst = sim.AppendUint(append(dst, ' '), uint64(m.S))
	return append(dst, '}')
}
