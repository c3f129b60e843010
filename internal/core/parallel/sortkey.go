package parallel

import "idonly/internal/sim"

// Typed sort keys (sim.SortKeyer): byte-identical to fmt.Sprint of each
// payload. Val is not a payload on its own — it renders itself so the
// six carrier types stay in lockstep with fmt's nested-struct form.

// AppendSortKey renders the opinion the way %v renders the nested
// struct: "{<S> <Bot>}".
func (v Val) AppendSortKey(dst []byte) []byte {
	dst = append(append(dst, '{'), v.S...)
	dst = sim.AppendBool(append(dst, ' '), v.Bot)
	return append(dst, '}')
}

// appendPairVal is the shared "{<ID> <Val>}" form of the value-carrying
// payloads.
func appendPairVal(dst []byte, id PairID, x Val) []byte {
	dst = sim.AppendUint(append(dst, '{'), uint64(id))
	dst = x.AppendSortKey(append(dst, ' '))
	return append(dst, '}')
}

// appendPair is the shared "{<ID>}" form of the marker payloads.
func appendPair(dst []byte, id PairID) []byte {
	dst = sim.AppendUint(append(dst, '{'), uint64(id))
	return append(dst, '}')
}

// AppendSortKey implements sim.SortKeyer.
func (m Input) AppendSortKey(dst []byte) []byte { return appendPairVal(dst, m.ID, m.X) }

// AppendSortKey implements sim.SortKeyer.
func (m Prefer) AppendSortKey(dst []byte) []byte { return appendPairVal(dst, m.ID, m.X) }

// AppendSortKey implements sim.SortKeyer.
func (m NoPref) AppendSortKey(dst []byte) []byte { return appendPair(dst, m.ID) }

// AppendSortKey implements sim.SortKeyer.
func (m StrongPrefer) AppendSortKey(dst []byte) []byte { return appendPairVal(dst, m.ID, m.X) }

// AppendSortKey implements sim.SortKeyer.
func (m NoStrongPref) AppendSortKey(dst []byte) []byte { return appendPair(dst, m.ID) }

// AppendSortKey implements sim.SortKeyer.
func (m Opinion) AppendSortKey(dst []byte) []byte { return appendPairVal(dst, m.ID, m.X) }
