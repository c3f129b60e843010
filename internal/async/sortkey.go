package async

import "idonly/internal/sim"

// Typed sort keys (sim.SortKeyer) for the asynchronous strawmen's
// payloads. The event-driven scheduler orders by (time, sequence) and
// never formats payloads, so nothing here is hot — but the types keep
// the repository-wide contract so they can ride the synchronous
// simulator's fast path if a comparison experiment ever drops them in.

// AppendSortKey implements sim.SortKeyer.
func (m Hello) AppendSortKey(dst []byte) []byte {
	dst = sim.AppendInt(append(dst, '{'), int64(m.Val))
	return append(dst, '}')
}

// AppendSortKey implements sim.SortKeyer.
func (m GossipMsg) AppendSortKey(dst []byte) []byte {
	dst = append(append(dst, '{'), m.Fingerprint...)
	dst = sim.AppendInt(append(dst, ' '), int64(m.Val))
	return append(dst, '}')
}
