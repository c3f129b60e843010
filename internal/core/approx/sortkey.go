package approx

import "idonly/internal/sim"

// Sort key (sim.SortKeyer): a tag from approx's range 0x30–0x3f, then
// the field.
const tagValue byte = 0x30

// AppendSortKey implements sim.SortKeyer.
func (m Value) AppendSortKey(dst []byte) []byte {
	return sim.AppendFloat(append(dst, tagValue), m.X)
}
