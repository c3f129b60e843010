package dynamic

import (
	"cmp"

	"idonly/internal/core/parallel"
	"idonly/internal/sim"
)

// Wire is the closed union of Algorithm 6's message alphabet — the
// join, leave and event kinds plus a session tag around any
// parallel.Wire — as one concrete value struct for the monomorphized
// runner. The Kind discriminates, and the zero Kind is no message
// (BoxedStep delivers payloads outside the union as it). wrap is
// canonical (unused fields are zero for a kind), so Wire equality is
// payload equality, and its key is the key of the payload it stands
// for.
//
// A session message carries its parallel.Wire flattened — InKind, ID,
// S and Bot are that Wire's fields, R is the tag — and an event's text
// rides in S, so a Wire is 40 bytes and hashes as one three-word run,
// one string and one three-byte run.
//
// A SessMsg whose inner payload is outside parallel's union is not a
// member — the runner cannot carry it — but wrap still maps it to the
// session-noise kind, which keeps the tag: the session's machine
// admits its sender (the zero parallel.Wire), exactly as it admitted
// the sender of the unknown boxed payload.
type Wire struct {
	ID     parallel.PairID // the session payload's instance or echo target
	R      int             // Ack.R, EventMsg.R, or the session tag
	S      string          // EventMsg.M, or the session payload's opinion string
	Kind   uint8
	InKind uint8 // the session payload's parallel.Wire kind
	Bot    bool  // the session payload's ⊥ flag
}

// Wire kinds.
const (
	wPresent uint8 = iota + 1
	wAck
	wAbsent
	wEvent
	wSess
	wNoise // session tag around a payload outside parallel's union
)

// sess tags a session payload.
func sess(tag int, in parallel.Wire) Wire {
	return Wire{Kind: wSess, R: tag, ID: in.ID, S: in.S, InKind: in.Kind, Bot: in.Bot}
}

// in returns the session payload of a session kind; for session noise
// it is the zero parallel.Wire.
func (w Wire) in() parallel.Wire {
	return parallel.Wire{ID: w.ID, S: w.S, Kind: w.InKind, Bot: w.Bot}
}

// AppendSortKey implements sim.SortKeyer: the bytes of the boxed
// payload the wire value stands for (for session noise, of the SessMsg
// unwrap restores).
func (w Wire) AppendSortKey(dst []byte) []byte {
	switch w.Kind {
	case wPresent:
		return Present{}.AppendSortKey(dst)
	case wAck:
		return Ack{R: w.R}.AppendSortKey(dst)
	case wAbsent:
		return Absent{}.AppendSortKey(dst)
	case wEvent:
		return EventMsg{M: w.S, R: w.R}.AppendSortKey(dst)
	case wSess:
		return w.in().AppendSortKey(appendSess(dst, w.R))
	case wNoise:
		return appendSess(dst, w.R)
	}
	return dst
}

// Key tag positions, in tag order: any kind outside the union renders
// no key, which sorts first, then absent (0x60), present, ack and
// event; session payloads and session noise share the last tag.
const (
	rankNone = iota
	rankAbsent
	rankPresent
	rankAck
	rankEvent
	rankSess
)

// rank is the position of w's key tag among the union's.
func (w Wire) rank() int {
	switch w.Kind {
	case wAbsent:
		return rankAbsent
	case wPresent:
		return rankPresent
	case wAck:
		return rankAck
	case wEvent:
		return rankEvent
	case wSess, wNoise:
		return rankSess
	}
	return rankNone
}

// Compare implements sim.WireMsg: the tag, then the fields the kind
// renders. A session message's inner payload compares by parallel's
// Compare; session noise renders none, as the zero parallel.Wire does.
func (w Wire) Compare(o Wire) int {
	k := w.rank()
	if c := cmp.Compare(k, o.rank()); c != 0 {
		return c
	}
	switch k {
	case rankAck:
		return cmp.Compare(w.R, o.R)
	case rankEvent:
		if c := sim.CompareString(w.S, o.S); c != 0 {
			return c
		}
		return cmp.Compare(w.R, o.R)
	case rankSess:
		if c := cmp.Compare(w.R, o.R); c != 0 {
			return c
		}
		return w.sessIn().Compare(o.sessIn())
	}
	return 0
}

// sessIn is the inner payload a session kind renders: none for noise.
func (w Wire) sessIn() parallel.Wire {
	if w.Kind == wNoise {
		return parallel.Wire{}
	}
	return w.in()
}

// parallelCodec converts session payloads.
var parallelCodec = parallel.WireCodec()

// wrap converts a boxed payload into the union; ok is false outside
// it. A SessMsg with an unknown inner payload comes back as session
// noise, everything else outside as the zero Wire.
func wrap(p any) (Wire, bool) {
	switch p := p.(type) {
	case Present:
		return Wire{Kind: wPresent}, true
	case Ack:
		return Wire{Kind: wAck, R: p.R}, true
	case Absent:
		return Wire{Kind: wAbsent}, true
	case EventMsg:
		return Wire{Kind: wEvent, R: p.R, S: p.M}, true
	case SessMsg:
		if in, ok := parallelCodec.Wrap(p.Inner); ok {
			return sess(p.Sess, in), true
		}
		return Wire{Kind: wNoise, R: p.Sess}, false
	}
	return Wire{}, false
}

// unwrap restores the boxed payload wrap consumed. Session noise keeps
// only the tag, so it comes back with a nil inner payload; the zero
// kind comes back as nil.
func (w Wire) unwrap() any {
	switch w.Kind {
	case wPresent:
		return Present{}
	case wAck:
		return Ack{R: w.R}
	case wAbsent:
		return Absent{}
	case wEvent:
		return EventMsg{M: w.S, R: w.R}
	case wSess:
		return SessMsg{Sess: w.R, Inner: parallelCodec.Unwrap(w.in())}
	case wNoise:
		return SessMsg{Sess: w.R}
	}
	return nil
}

// codec is the union's sim.Codec.
var codec = sim.Codec[Wire]{Wrap: wrap, Unwrap: Wire.unwrap}

// WireCodec returns the sim.Codec for the dynamic-ordering union.
func WireCodec() sim.Codec[Wire] { return codec }
