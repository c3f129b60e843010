package rbroadcast

import (
	"cmp"

	"idonly/internal/ids"
	"idonly/internal/sim"
)

// Wire is the closed union of Algorithm 1's message alphabet — the
// concrete message type the monomorphized runner carries, so the hot
// loop never boxes a payload. The Kind discriminates, and the zero Kind
// is no message (BoxedStep delivers payloads outside the union as the
// zero Wire); unused fields are always zero for a kind (wrap is
// canonical), so Wire equality is payload equality.
//
// Wire delegates its sort key to the wrapped payload type, so the
// rendered bytes — and with them inbox order, trace digests and
// canonical reports — are identical on both planes.
type Wire struct {
	Kind uint8
	M    string
	S    ids.ID
}

// Wire kinds.
const (
	wInitial uint8 = iota + 1
	wPresent
	wEcho
)

// AppendSortKey implements sim.SortKeyer by delegation.
func (w Wire) AppendSortKey(dst []byte) []byte {
	switch w.Kind {
	case wInitial:
		return Initial{M: w.M, S: w.S}.AppendSortKey(dst)
	case wPresent:
		return Present{}.AppendSortKey(dst)
	default:
		return Echo{M: w.M, S: w.S}.AppendSortKey(dst)
	}
}

// rank is the position of w's key tag: the kinds are declared in tag
// order, and every other kind renders, as AppendSortKey's default, an
// echo.
func (w Wire) rank() uint8 {
	if w.Kind == wInitial || w.Kind == wPresent {
		return w.Kind
	}
	return wEcho
}

// Compare implements sim.WireMsg: the tag, then the message and the
// source, which Present does not render.
func (w Wire) Compare(o Wire) int {
	k := w.rank()
	if c := cmp.Compare(k, o.rank()); c != 0 || k == wPresent {
		return c
	}
	if c := sim.CompareString(w.M, o.M); c != 0 {
		return c
	}
	return cmp.Compare(w.S, o.S)
}

// wrap converts a boxed payload into the union; ok is false outside
// the alphabet (unknown payloads are membership noise: their sender
// counts toward nv, nothing else).
func wrap(p any) (Wire, bool) {
	switch p := p.(type) {
	case Initial:
		return Wire{Kind: wInitial, M: p.M, S: p.S}, true
	case Present:
		return Wire{Kind: wPresent}, true
	case Echo:
		return Wire{Kind: wEcho, M: p.M, S: p.S}, true
	}
	return Wire{}, false
}

// unwrap restores the boxed payload wrap consumed.
func (w Wire) unwrap() any {
	switch w.Kind {
	case wInitial:
		return Initial{M: w.M, S: w.S}
	case wPresent:
		return Present{}
	default:
		return Echo{M: w.M, S: w.S}
	}
}

// codec is the union's sim.Codec.
var codec = sim.Codec[Wire]{Wrap: wrap, Unwrap: Wire.unwrap}

// WireCodec returns the sim.Codec for the rbroadcast union.
func WireCodec() sim.Codec[Wire] {
	return codec
}
