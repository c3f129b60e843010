package dynamic

import "idonly/internal/sim"

// Sort keys (sim.SortKeyer): a tag from dynamic's range 0x60–0x6f,
// then the fields. SessMsg is the one wrapper in the repository: tag,
// session, then its inner payload's whole key, and nothing for a nil
// one. A node decides nothing by where a tag sorts: StepTyped reads
// one sender's run in any order alike (see the package comment).
const (
	tagAbsent byte = 0x60 + iota
	tagPresent
	tagAck
	tagEvent
	tagSess
)

// AppendSortKey implements sim.SortKeyer.
func (Present) AppendSortKey(dst []byte) []byte { return append(dst, tagPresent) }

// AppendSortKey implements sim.SortKeyer.
func (m Ack) AppendSortKey(dst []byte) []byte {
	return sim.AppendInt(append(dst, tagAck), int64(m.R))
}

// AppendSortKey implements sim.SortKeyer.
func (Absent) AppendSortKey(dst []byte) []byte { return append(dst, tagAbsent) }

// AppendSortKey implements sim.SortKeyer.
func (m EventMsg) AppendSortKey(dst []byte) []byte {
	return sim.AppendInt(sim.AppendString(append(dst, tagEvent), m.M), int64(m.R))
}

// AppendSortKey implements sim.SortKeyer.
func (m SessMsg) AppendSortKey(dst []byte) []byte {
	dst = appendSess(dst, m.Sess)
	if m.Inner == nil {
		return dst
	}
	return sim.AppendKey(dst, m.Inner)
}

// appendSess is a session message's key up to its inner payload.
func appendSess(dst []byte, sess int) []byte {
	return sim.AppendInt(append(dst, tagSess), int64(sess))
}
