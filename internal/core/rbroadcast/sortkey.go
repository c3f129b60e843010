package rbroadcast

import "idonly/internal/sim"

// Sort keys (sim.SortKeyer): a tag from rbroadcast's range 0x40–0x4f,
// then the fields.
const (
	tagInitial byte = 0x40 + iota
	tagPresent
	tagEcho
)

// AppendSortKey implements sim.SortKeyer.
func (m Initial) AppendSortKey(dst []byte) []byte {
	return sim.AppendUint(sim.AppendString(append(dst, tagInitial), m.M), uint64(m.S))
}

// AppendSortKey implements sim.SortKeyer.
func (Present) AppendSortKey(dst []byte) []byte { return append(dst, tagPresent) }

// AppendSortKey implements sim.SortKeyer.
func (m Echo) AppendSortKey(dst []byte) []byte {
	return sim.AppendUint(sim.AppendString(append(dst, tagEcho), m.M), uint64(m.S))
}
