package parallel

import "idonly/internal/sim"

// Sort keys (sim.SortKeyer): a tag from parallel's range 0x50–0x5f,
// then the fields. A payload's tag is tagBase plus its Wire kind, so a
// Wire renders its own kinds without a table. Val is not a payload on
// its own: a carrier writes its two fields in place.
const tagBase byte = 0x50

// appendPairVal is the shared form of the value-carrying payloads:
// tag, instance, the opinion's string and ⊥ flag.
func appendPairVal(dst []byte, kind uint8, id PairID, x Val) []byte {
	dst = appendPair(dst, kind, id)
	return sim.AppendBool(sim.AppendString(dst, x.S), x.Bot)
}

// appendPair is the shared form of the marker payloads: tag, instance.
func appendPair(dst []byte, kind uint8, id PairID) []byte {
	return sim.AppendUint(append(dst, tagBase+kind), uint64(id))
}

// AppendSortKey implements sim.SortKeyer.
func (m Input) AppendSortKey(dst []byte) []byte { return appendPairVal(dst, wInput, m.ID, m.X) }

// AppendSortKey implements sim.SortKeyer.
func (m Prefer) AppendSortKey(dst []byte) []byte { return appendPairVal(dst, wPrefer, m.ID, m.X) }

// AppendSortKey implements sim.SortKeyer.
func (m NoPref) AppendSortKey(dst []byte) []byte { return appendPair(dst, wNoPref, m.ID) }

// AppendSortKey implements sim.SortKeyer.
func (m StrongPrefer) AppendSortKey(dst []byte) []byte { return appendPairVal(dst, wStrong, m.ID, m.X) }

// AppendSortKey implements sim.SortKeyer.
func (m NoStrongPref) AppendSortKey(dst []byte) []byte { return appendPair(dst, wNoStrong, m.ID) }

// AppendSortKey implements sim.SortKeyer.
func (m Opinion) AppendSortKey(dst []byte) []byte { return appendPairVal(dst, wOpinion, m.ID, m.X) }
