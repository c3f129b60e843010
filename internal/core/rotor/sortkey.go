package rotor

import "idonly/internal/sim"

// Sort keys (sim.SortKeyer): a tag from rotor's range 0x10–0x1f, then
// the fields. The contract, and the tests that hold every payload type
// to it, live in internal/sim's sortkey.go and internal/sortkeys.
const (
	tagInit byte = 0x10 + iota
	tagEcho
	tagOpinion
)

// AppendSortKey implements sim.SortKeyer.
func (Init) AppendSortKey(dst []byte) []byte { return append(dst, tagInit) }

// AppendSortKey implements sim.SortKeyer.
func (m Echo) AppendSortKey(dst []byte) []byte {
	return sim.AppendUint(append(dst, tagEcho), uint64(m.P))
}

// AppendSortKey implements sim.SortKeyer.
func (m Opinion) AppendSortKey(dst []byte) []byte {
	return sim.AppendFloat(append(dst, tagOpinion), m.X)
}
