package baseline

import "idonly/internal/sim"

// Sort keys (sim.SortKeyer): a tag from baseline's range 0x80–0x8f,
// then the fields. The known-n,f baselines share the wire with the
// id-only protocols in the comparison experiments (E5/E6) and with the
// adversaries that speak both dialects.
const (
	tagSTInitial byte = 0x80 + iota
	tagSTEcho
	tagKInput
	tagKPrefer
	tagKStrong
	tagKKing
	tagAValue
)

// AppendSortKey implements sim.SortKeyer.
func (m STInitial) AppendSortKey(dst []byte) []byte {
	return sim.AppendUint(sim.AppendString(append(dst, tagSTInitial), m.M), uint64(m.S))
}

// AppendSortKey implements sim.SortKeyer.
func (m STEcho) AppendSortKey(dst []byte) []byte {
	return sim.AppendUint(sim.AppendString(append(dst, tagSTEcho), m.M), uint64(m.S))
}

// AppendSortKey implements sim.SortKeyer.
func (m KInput) AppendSortKey(dst []byte) []byte {
	return sim.AppendFloat(append(dst, tagKInput), m.X)
}

// AppendSortKey implements sim.SortKeyer.
func (m KPrefer) AppendSortKey(dst []byte) []byte {
	return sim.AppendFloat(append(dst, tagKPrefer), m.X)
}

// AppendSortKey implements sim.SortKeyer.
func (m KStrong) AppendSortKey(dst []byte) []byte {
	return sim.AppendFloat(append(dst, tagKStrong), m.X)
}

// AppendSortKey implements sim.SortKeyer.
func (m KKing) AppendSortKey(dst []byte) []byte {
	return sim.AppendFloat(append(dst, tagKKing), m.X)
}

// AppendSortKey implements sim.SortKeyer.
func (m AValue) AppendSortKey(dst []byte) []byte {
	return sim.AppendFloat(append(dst, tagAValue), m.X)
}
