package consensus

import "idonly/internal/sim"

// Sort keys (sim.SortKeyer): a tag from consensus's range 0x20–0x2f,
// then the fields.
const (
	tagInput byte = 0x20 + iota
	tagPrefer
	tagStrongPrefer
)

// AppendSortKey implements sim.SortKeyer.
func (m Input) AppendSortKey(dst []byte) []byte {
	return sim.AppendFloat(append(dst, tagInput), m.X)
}

// AppendSortKey implements sim.SortKeyer.
func (m Prefer) AppendSortKey(dst []byte) []byte {
	return sim.AppendFloat(append(dst, tagPrefer), m.X)
}

// AppendSortKey implements sim.SortKeyer.
func (m StrongPrefer) AppendSortKey(dst []byte) []byte {
	return sim.AppendFloat(append(dst, tagStrongPrefer), m.X)
}
