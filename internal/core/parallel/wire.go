package parallel

import (
	"cmp"

	"idonly/internal/core/rotor"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// Wire is the closed union of Algorithm 5's message alphabet — the six
// EarlyConsensus kinds plus the rotor-coordinator kinds the execution
// rides on — as one concrete value struct, the type a Machine absorbs
// and advances over and the monomorphized runner carries. The Kind
// discriminates, and the zero Kind is no message: it still passes
// Absorb's admission (its sender is counted, as a payload outside the
// alphabet always was) and is classified as nothing. wrap is canonical
// (unused fields are zero for a kind), so Wire equality is payload
// equality, and it compares as the key of the payload it stands for.
//
// The opinion is flattened into S and Bot, and an echo's relay target
// rides in ID, so a Wire is 32 bytes; the two flag bytes go last, so
// comparing two Wires for equality (how the runner finds a sender's
// duplicates) covers one word, one string and one two-byte run.
type Wire struct {
	ID   PairID // the instance; for an echo, the relay target
	S    string // the opinion's string
	Kind uint8
	Bot  bool // the opinion's ⊥ flag
}

// Wire kinds.
const (
	wInit uint8 = iota + 1
	wEcho
	wInput
	wPrefer
	wNoPref
	wStrong
	wNoStrong
	wOpinion
)

// x returns the carried opinion.
func (w Wire) x() Val { return Val{S: w.S, Bot: w.Bot} }

// echo is the rotor echo relaying p.
func echo(p ids.ID) Wire { return Wire{Kind: wEcho, ID: PairID(p)} }

// pairVal is a value-carrying kind for one instance.
func pairVal(kind uint8, id PairID, x Val) Wire {
	return Wire{Kind: kind, Bot: x.Bot, ID: id, S: x.S}
}

// rank is the position of w's key tag among the union's: the kinds
// are declared in tag order (rotor's init and echo, then tagBase plus
// the kind), and any other kind renders no key, which sorts first.
func (w Wire) rank() uint8 {
	if w.Kind >= wInit && w.Kind <= wOpinion {
		return w.Kind
	}
	return 0
}

// Compare implements sim.WireMsg: the tag, then the fields the kind
// renders — none for init, the instance (or echo target), then the
// opinion's string and ⊥ flag.
func (w Wire) Compare(o Wire) int {
	k := w.rank()
	if c := cmp.Compare(k, o.rank()); c != 0 || k == 0 || k == wInit {
		return c
	}
	if c := cmp.Compare(w.ID, o.ID); c != 0 || k == wEcho || k == wNoPref || k == wNoStrong {
		return c
	}
	if c := sim.CompareString(w.S, o.S); c != 0 {
		return c
	}
	return sim.CompareBool(w.Bot, o.Bot)
}

// wrap converts a boxed payload into the union; ok is false outside
// the alphabet (e.g. chaos junk, or rotor.Opinion, which no Algorithm 5
// round reads — membership noise: sender counted, payload
// unclassified).
func wrap(p any) (Wire, bool) {
	switch p := p.(type) {
	case rotor.Init:
		return Wire{Kind: wInit}, true
	case rotor.Echo:
		return echo(p.P), true
	case Input:
		return pairVal(wInput, p.ID, p.X), true
	case Prefer:
		return pairVal(wPrefer, p.ID, p.X), true
	case NoPref:
		return Wire{Kind: wNoPref, ID: p.ID}, true
	case StrongPrefer:
		return pairVal(wStrong, p.ID, p.X), true
	case NoStrongPref:
		return Wire{Kind: wNoStrong, ID: p.ID}, true
	case Opinion:
		return pairVal(wOpinion, p.ID, p.X), true
	}
	return Wire{}, false
}

// unwrap restores the boxed payload wrap consumed; nil for the zero
// kind, which stands for no payload of the alphabet.
func (w Wire) unwrap() any {
	switch w.Kind {
	case wInit:
		return rotor.Init{}
	case wEcho:
		return rotor.Echo{P: ids.ID(w.ID)}
	case wInput:
		return Input{ID: w.ID, X: w.x()}
	case wPrefer:
		return Prefer{ID: w.ID, X: w.x()}
	case wNoPref:
		return NoPref{ID: w.ID}
	case wStrong:
		return StrongPrefer{ID: w.ID, X: w.x()}
	case wNoStrong:
		return NoStrongPref{ID: w.ID}
	case wOpinion:
		return Opinion{ID: w.ID, X: w.x()}
	}
	return nil
}

// codec is the union's sim.Codec.
var codec = sim.Codec[Wire]{Wrap: wrap, Unwrap: Wire.unwrap}

// WireCodec returns the sim.Codec for the parallel-consensus union.
func WireCodec() sim.Codec[Wire] { return codec }
