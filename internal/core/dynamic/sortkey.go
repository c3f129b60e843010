package dynamic

import (
	"fmt"

	"idonly/internal/sim"
)

// Typed sort keys (sim.SortKeyer): byte-identical to fmt.Sprint of each
// payload. SessMsg is the one wrapper type in the repository: it renders
// its inner payload's key in place, and fmt's %v form for an inner
// payload without one. Two session messages whose inner types render
// the same bytes — e.g. parallel.NoPref and parallel.NoStrongPref for
// the same pair — stay distinct to the duplicate filter, which keys on
// values, not bytes.

// AppendSortKey implements sim.SortKeyer.
func (Present) AppendSortKey(dst []byte) []byte { return append(dst, "{}"...) }

// AppendSortKey implements sim.SortKeyer.
func (m Ack) AppendSortKey(dst []byte) []byte {
	dst = sim.AppendInt(append(dst, '{'), int64(m.R))
	return append(dst, '}')
}

// AppendSortKey implements sim.SortKeyer.
func (Absent) AppendSortKey(dst []byte) []byte { return append(dst, "{}"...) }

// AppendSortKey implements sim.SortKeyer.
func (m EventMsg) AppendSortKey(dst []byte) []byte {
	dst = append(append(dst, '{'), m.M...)
	dst = sim.AppendInt(append(dst, ' '), int64(m.R))
	return append(dst, '}')
}

// AppendSortKey implements sim.SortKeyer.
func (m SessMsg) AppendSortKey(dst []byte) []byte {
	dst = sim.AppendInt(append(dst, '{'), int64(m.Sess))
	dst = append(dst, ' ')
	switch inner := m.Inner.(type) {
	case sim.SortKeyer:
		dst = inner.AppendSortKey(dst)
	case nil:
		dst = append(dst, "<nil>"...)
	default:
		dst = fmt.Append(dst, inner)
	}
	return append(dst, '}')
}
