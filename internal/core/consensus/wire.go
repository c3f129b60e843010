package consensus

import (
	"cmp"

	"idonly/internal/core/rotor"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// Wire is the closed union of Algorithm 3's message alphabet — the
// three consensus kinds plus the rotor-coordinator kinds the protocol
// rides on — as one concrete value struct for the monomorphized
// runner. The Kind discriminates, and the zero Kind is no message
// (BoxedStep delivers payloads outside the union as the zero Wire);
// wrap is canonical (unused fields are zero for a kind), so Wire
// equality is payload equality. A Wire renders no sort key: Compare
// orders as the keys of the payloads it unwraps to, so both planes
// order an inbox alike.
type Wire struct {
	Kind uint8
	P    ids.ID  // rotor.Echo relay target
	X    float64 // opinion/input/prefer/strongprefer value
}

// Wire kinds.
const (
	wInit uint8 = iota + 1
	wEcho
	wOpinion
	wInput
	wPrefer
	wStrong
)

// rank is the position of w's key tag among the union's: the kinds
// are declared in tag order (rotor's 0x10–0x12 below consensus's
// 0x20–0x22), and every other kind unwraps to, and so compares as, a
// strongprefer.
func (w Wire) rank() uint8 {
	if w.Kind >= wInit && w.Kind <= wStrong {
		return w.Kind
	}
	return wStrong
}

// Compare implements sim.WireMsg: the tag, then the one field the
// kind renders.
func (w Wire) Compare(o Wire) int {
	k := w.rank()
	switch c := cmp.Compare(k, o.rank()); {
	case c != 0 || k == wInit:
		return c
	case k == wEcho:
		return cmp.Compare(w.P, o.P)
	}
	return sim.CompareFloat(w.X, o.X)
}

// wrap converts a boxed payload into the union; ok is false outside
// the alphabet (e.g. chaos junk — membership noise: sender counted,
// payload unclassified).
func wrap(p any) (Wire, bool) {
	switch p := p.(type) {
	case rotor.Init:
		return Wire{Kind: wInit}, true
	case rotor.Echo:
		return Wire{Kind: wEcho, P: p.P}, true
	case rotor.Opinion:
		return Wire{Kind: wOpinion, X: p.X}, true
	case Input:
		return Wire{Kind: wInput, X: p.X}, true
	case Prefer:
		return Wire{Kind: wPrefer, X: p.X}, true
	case StrongPrefer:
		return Wire{Kind: wStrong, X: p.X}, true
	}
	return Wire{}, false
}

// unwrap restores the boxed payload wrap consumed.
func (w Wire) unwrap() any {
	switch w.Kind {
	case wInit:
		return rotor.Init{}
	case wEcho:
		return rotor.Echo{P: w.P}
	case wOpinion:
		return rotor.Opinion{X: w.X}
	case wInput:
		return Input{X: w.X}
	case wPrefer:
		return Prefer{X: w.X}
	default:
		return StrongPrefer{X: w.X}
	}
}

// codec is the union's sim.Codec.
var codec = sim.Codec[Wire]{Wrap: wrap, Unwrap: Wire.unwrap}

// WireCodec returns the sim.Codec for the consensus union.
func WireCodec() sim.Codec[Wire] {
	return codec
}
