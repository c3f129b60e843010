package engine

import (
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The result codec: a reflection-free JSON encoder for the types the
// canonical report is made of, and a decoder for Result.
//
// The encoder writes exactly the bytes encoding/json writes — field
// order, omitempty, HTML-safe string escaping, U+2028/2029, invalid
// UTF-8 — either compact (json.Marshal: the store's record payload and
// the service's NDJSON lines) or in the canonical indented form
// (json.MarshalIndent with a two-space indent: CanonicalBytes), in one
// pass into one buffer.
//
// The decoder returns what json.Unmarshal returns for a Result. It
// scans the one compact form the encoder writes itself and hands every
// other document, whole, to json.Unmarshal.
//
// TestCodecCoversEveryField fails when a field of these types is added
// without codec support, or is written in a form the scanner does not
// read; FuzzResultCodec holds both sides to encoding/json.

// AppendResultJSON appends the compact JSON encoding of r to dst — the
// bytes json.Marshal(r) returns.
func AppendResultJSON(dst []byte, r *Result) []byte {
	w := jsonOut{b: dst}
	w.result(r)
	return w.b
}

// jsonOut appends one JSON document to b. In canonical mode it writes
// the indented form and drops the fields the canonical report zeroes:
// Workers, ElapsedNS, WallNS and InboxGrows. With a sink, a report is
// streamed: between groups and results, once b holds spillAt bytes,
// they go to the sink and b is reused, so b stays bounded by spillAt
// plus one group or result.
type jsonOut struct {
	b         []byte
	canonical bool
	depth     int
	empty     bool      // the innermost open object or array has no member yet
	sink      io.Writer // takes b's bytes as they pass spillAt; nil keeps all of b
}

// spillAt is the size at which a streaming jsonOut hands b to its sink.
const spillAt = 8 << 10

// spill hands b to the sink once it holds spillAt bytes.
func (w *jsonOut) spill() {
	if w.sink != nil && len(w.b) >= spillAt {
		w.sink.Write(w.b)
		w.b = w.b[:0]
	}
}

// indent is a line break followed by the deepest indent the report's
// types reach (results → result → scenario → churn is depth 4).
const indent = "\n                "

func (w *jsonOut) newline() {
	if w.canonical {
		w.b = append(w.b, indent[:1+2*w.depth]...)
	}
}

func (w *jsonOut) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.empty = true
}

// close ends the innermost object or array; an empty one stays "{}" or
// "[]" in the indented form too.
func (w *jsonOut) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.b = append(w.b, c)
	w.empty = false
}

// member starts the next member of the innermost object or array.
func (w *jsonOut) member() {
	if !w.empty {
		w.b = append(w.b, ',')
	}
	w.empty = false
	w.newline()
}

// key starts an object member. Keys are the types' json tags: plain
// ASCII that needs no escaping.
func (w *jsonOut) key(k string) {
	w.member()
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, '"', ':')
	if w.canonical {
		w.b = append(w.b, ' ')
	}
}

func (w *jsonOut) int(k string, v int64) {
	w.key(k)
	w.b = strconv.AppendInt(w.b, v, 10)
}

func (w *jsonOut) intOmit(k string, v int64) {
	if v != 0 {
		w.int(k, v)
	}
}

func (w *jsonOut) bool(k string, v bool) {
	w.key(k)
	w.b = strconv.AppendBool(w.b, v)
}

func (w *jsonOut) boolOmit(k string, v bool) {
	if v {
		w.bool(k, v)
	}
}

func (w *jsonOut) str(k, v string) {
	w.key(k)
	w.b = appendJSONString(w.b, v)
}

func (w *jsonOut) strOmit(k, v string) {
	if v != "" {
		w.str(k, v)
	}
}

func (w *jsonOut) report(r *Report) {
	w.open('{')
	w.strOmit("grid", r.Grid)
	w.int("scenarios", int64(r.Scenarios))
	if !w.canonical {
		w.intOmit("workers", int64(r.Workers))
		w.intOmit("elapsed_ns", r.ElapsedNS)
	}
	w.key("groups")
	if r.Groups == nil {
		w.b = append(w.b, "null"...)
	} else {
		w.open('[')
		for i := range r.Groups {
			w.member()
			w.group(&r.Groups[i])
			w.spill()
		}
		w.close(']')
	}
	w.key("results")
	if r.Results == nil {
		w.b = append(w.b, "null"...)
	} else {
		w.open('[')
		for i := range r.Results {
			w.member()
			w.result(&r.Results[i])
			w.spill()
		}
		w.close(']')
	}
	w.close('}')
}

func (w *jsonOut) group(g *Group) {
	w.open('{')
	w.key("key")
	w.open('{')
	w.str("protocol", g.Key.Protocol)
	w.str("adversary", g.Key.Adversary)
	w.int("n", int64(g.Key.N))
	w.int("f", int64(g.Key.F))
	w.strOmit("churn", g.Key.Churn)
	w.close('}')
	w.int("count", int64(g.Count))
	w.int("errors", int64(g.Errors))
	w.int("decided_all", int64(g.DecidedAll))
	w.boolOmit("decided_na", g.DecidedNA)
	w.int("rounds_p50", int64(g.RoundsP50))
	w.int("rounds_p90", int64(g.RoundsP90))
	w.int("rounds_max", int64(g.RoundsMax))
	w.int("msgs_p50", g.MsgsP50)
	w.int("msgs_p90", g.MsgsP90)
	w.int("msgs_max", g.MsgsMax)
	w.intOmit("joins", int64(g.Joins))
	w.intOmit("leaves", int64(g.Leaves))
	w.intOmit("lag_p50", int64(g.LagP50))
	w.intOmit("lag_max", int64(g.LagMax))
	w.close('}')
}

func (w *jsonOut) result(r *Result) {
	w.open('{')
	w.key("scenario")
	w.scenario(&r.Scenario)
	w.int("rounds", int64(r.Rounds))
	w.int("messages_delivered", r.MessagesDelivered)
	w.int("messages_dropped", r.MessagesDropped)
	w.bool("all_decided", r.AllDecided)
	w.int("decided_round_max", int64(r.DecidedRoundMax))
	w.str("output", r.Output)
	w.strOmit("err", r.Err)
	if !w.canonical {
		w.intOmit("wall_ns", r.WallNS)
	}
	w.int("decided_nodes", int64(r.DecidedNodes))
	w.int("decided_of", int64(r.DecidedOf))
	w.boolOmit("decided_na", r.DecidedNA)
	w.intOmit("joins", int64(r.Joins))
	w.intOmit("leaves", int64(r.Leaves))
	w.intOmit("peak_members", int64(r.PeakMembers))
	w.intOmit("min_members", int64(r.MinMembers))
	w.intOmit("finality_lag", int64(r.FinalityLag))
	if !w.canonical {
		w.intOmit("inbox_grows", r.InboxGrows)
	}
	w.close('}')
}

func (w *jsonOut) scenario(s *Scenario) {
	w.open('{')
	w.str("name", s.Name)
	w.str("protocol", s.Protocol)
	w.str("adversary", s.Adversary)
	w.int("n", int64(s.N))
	w.int("f", int64(s.F))
	w.key("seed")
	w.b = strconv.AppendUint(w.b, s.Seed, 10)
	w.int("max_rounds", int64(s.MaxRounds))
	w.intOmit("pairs", int64(s.Pairs))
	if c := s.Churn; c != nil {
		w.key("churn")
		w.open('{')
		w.intOmit("joins", int64(c.Joins))
		w.intOmit("leaves", int64(c.Leaves))
		w.intOmit("faulty_joins", int64(c.FaultyJoins))
		w.intOmit("faulty_leaves", int64(c.FaultyLeaves))
		w.intOmit("window", int64(c.Window))
		w.close('}')
	}
	w.close('}')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string the way encoding/json
// writes it with HTML escaping on (json.Marshal's default): `<`, `>`
// and `&` as \u00XX escapes, control characters as \b \f \n \r
// \t or \u00XX, U+2028 and U+2029 escaped, and each byte of invalid
// UTF-8 as the escaped replacement character U+FFFD.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case r == 0x2028 || r == 0x2029: // LINE and PARAGRAPH SEPARATOR
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// DecodeResult decodes one JSON-encoded Result, the store's record
// payload: it returns the value and the error json.Unmarshal returns.
// A record in the one compact form AppendResultJSON writes is read by
// scanResult; any other document goes whole to json.Unmarshal. Either
// way the result shares no memory with data, so the caller may reuse
// data at once. On the scanned path protocol and adversary names are
// the engine's constants and churn specs are interned: results with
// equal specs share one *Churn, which Scenario.Churn's never-mutated
// contract allows.
func DecodeResult(data []byte) (Result, error) { return DecodeResultNamed(data, "") }

// DecodeResultNamed is DecodeResult for a record the caller expects to
// hold the scenario named name — the store's batch read passes the
// name its matching spec already holds. On the scanned path a stored
// name equal to it shares name's memory instead of allocating a copy;
// any other name decodes as DecodeResult decodes it.
func DecodeResultNamed(data []byte, name string) (Result, error) {
	if r, ok := scanResult(data, name); ok {
		return r, nil
	}
	var r Result
	err := json.Unmarshal(data, &r)
	return r, err
}

// The two kinds of member: one the encoder always writes, and one it
// leaves out when the value is zero.
const (
	required  = false
	omitempty = true
)

// scanner is scanResult's cursor. Its readers stop at the first byte
// outside the compact form and clear ok, after which every reader is a
// no-op returning zero; the caller checks ok once, at the end.
type scanner struct {
	data []byte
	pos  int
	ok   bool
}

// scanResult reads data if it is in the compact form AppendResultJSON
// writes, and reports whether it was; a scenario name equal to name is
// name itself. In that form keys come in
// declaration order, with an omitempty key missing or present; there
// is no white space; integers are written as strconv writes them; and
// every string is printable ASCII with no quote and no backslash, so
// its bytes are its value. Whatever it accepts, json.Unmarshal reads to
// the same value.
func scanResult(data []byte, name string) (Result, bool) {
	s := scanner{data: data, ok: true}
	var r Result
	s.lit("{")
	s.open("scenario", required)
	s.scenario(&r.Scenario, name)
	r.Rounds = s.int("rounds", required)
	r.MessagesDelivered = s.int64("messages_delivered", required)
	r.MessagesDropped = s.int64("messages_dropped", required)
	r.AllDecided = s.bool("all_decided", required)
	r.DecidedRoundMax = s.int("decided_round_max", required)
	r.Output = string(s.str("output", required))
	r.Err = string(s.str("err", omitempty))
	r.WallNS = s.int64("wall_ns", omitempty)
	r.DecidedNodes = s.int("decided_nodes", required)
	r.DecidedOf = s.int("decided_of", required)
	r.DecidedNA = s.bool("decided_na", omitempty)
	r.Joins = s.int("joins", omitempty)
	r.Leaves = s.int("leaves", omitempty)
	r.PeakMembers = s.int("peak_members", omitempty)
	r.MinMembers = s.int("min_members", omitempty)
	r.FinalityLag = s.int("finality_lag", omitempty)
	r.InboxGrows = s.int64("inbox_grows", omitempty)
	s.close()
	return r, s.ok && s.pos == len(s.data)
}

func (s *scanner) scenario(sc *Scenario, name string) {
	if b := s.str("name", required); string(b) == name {
		sc.Name = name
	} else {
		sc.Name = string(b)
	}
	sc.Protocol = s.name("protocol")
	sc.Adversary = s.name("adversary")
	sc.N = s.int("n", required)
	sc.F = s.int("f", required)
	if s.key("seed", required) {
		sc.Seed = s.digits(math.MaxUint64)
	}
	sc.MaxRounds = s.int("max_rounds", required)
	sc.Pairs = s.int("pairs", omitempty)
	if s.open("churn", omitempty) {
		var c Churn
		c.Joins = s.int("joins", omitempty)
		c.Leaves = s.int("leaves", omitempty)
		c.FaultyJoins = s.int("faulty_joins", omitempty)
		c.FaultyLeaves = s.int("faulty_leaves", omitempty)
		c.Window = s.int("window", omitempty)
		if s.close(); s.ok {
			sc.Churn = internChurn(c)
		}
	}
	s.close()
}

// lit steps over the literal l.
func (s *scanner) lit(l string) bool {
	if s.ok && len(s.data)-s.pos >= len(l) && string(s.data[s.pos:s.pos+len(l)]) == l {
		s.pos += len(l)
		return true
	}
	s.ok = false
	return false
}

// key steps over the member key k and its colon — after the comma
// that separates it from the member before, unless it is the first in
// its object — and reports whether it did. A missing omitempty key is
// no error; its value reads as zero.
func (s *scanner) key(k string, omit bool) bool {
	if !s.ok {
		return false
	}
	p := s.pos // past the result's opening brace: ok implies p > 0
	if s.data[p-1] != '{' {
		if p == len(s.data) || s.data[p] != ',' {
			s.ok = omit
			return false
		}
		p++
	}
	end := p + len(k) + 3
	if end > len(s.data) || s.data[p] != '"' || string(s.data[p+1:end-2]) != k || s.data[end-2] != '"' || s.data[end-1] != ':' {
		s.ok = omit
		return false
	}
	s.pos = end
	return true
}

// open steps over the key k and the brace that opens its object value.
func (s *scanner) open(k string, omit bool) bool { return s.key(k, omit) && s.lit("{") }

func (s *scanner) close() { s.lit("}") }

// digits reads a non-negative integer as strconv writes it — digits
// only, no leading zero — that is at most limit.
func (s *scanner) digits(limit uint64) uint64 {
	start := s.pos
	var u uint64
	for ; s.ok && s.pos < len(s.data); s.pos++ {
		c := s.data[s.pos]
		if c < '0' || c > '9' {
			break
		}
		if u > (limit-uint64(c-'0'))/10 {
			s.ok = false
		}
		u = u*10 + uint64(c-'0')
	}
	if n := s.pos - start; n == 0 || n > 1 && s.data[start] == '0' {
		s.ok = false
	}
	return u
}

func (s *scanner) int64(k string, omit bool) int64 {
	if !s.key(k, omit) {
		return 0
	}
	if s.pos < len(s.data) && s.data[s.pos] == '-' {
		s.pos++
		return -int64(s.digits(1 << 63)) // -(1<<63) wraps to math.MinInt64 itself
	}
	return int64(s.digits(math.MaxInt64))
}

func (s *scanner) int(k string, omit bool) int {
	v := s.int64(k, omit)
	if int64(int(v)) != v {
		s.ok = false
	}
	return int(v)
}

func (s *scanner) bool(k string, omit bool) bool {
	if !s.key(k, omit) {
		return false
	}
	if s.pos < len(s.data) && s.data[s.pos] == 't' {
		return s.lit("true")
	}
	s.lit("false")
	return false
}

// str reads a string of printable ASCII with no quote and no
// backslash. The bytes alias the input, so a caller that keeps them
// must copy.
func (s *scanner) str(k string, omit bool) []byte {
	if !s.key(k, omit) || !s.lit(`"`) {
		return nil
	}
	for start := s.pos; s.pos < len(s.data); s.pos++ {
		switch c := s.data[s.pos]; {
		case c == '"':
			s.pos++
			return s.data[start : s.pos-1]
		case c < ' ' || c > '~' || c == '\\':
			s.ok = false
			return nil
		}
	}
	s.ok = false
	return nil
}

// internedNames are the protocol and adversary constants; a scanned
// name equal to one shares its memory instead of allocating a copy.
var internedNames = []string{
	ProtoRBroadcast, ProtoRotor, ProtoConsensus, ProtoApprox, ProtoParallel, ProtoDynamic, ProtoRing,
	AdvNone, AdvSilent, AdvSplit, AdvChaos, AdvReplay,
}

func (s *scanner) name(k string) string {
	b := s.str(k, required)
	for _, n := range internedNames {
		if string(b) == n {
			return n
		}
	}
	return string(b)
}

// churnIntern holds one *Churn per distinct spec decoded so far: a
// warm sweep decodes the same few specs hundreds of times, and one
// shared pointer serves them all. Past maxInternedChurns distinct specs
// the rest are allocated per result.
var churnIntern = struct {
	sync.Mutex
	m map[Churn]*Churn
}{m: make(map[Churn]*Churn)}

const maxInternedChurns = 256

func internChurn(c Churn) *Churn {
	churnIntern.Lock()
	defer churnIntern.Unlock()
	if p, ok := churnIntern.m[c]; ok {
		return p
	}
	p := new(Churn) // not &c: that would move c to the heap on every call
	*p = c
	if len(churnIntern.m) < maxInternedChurns {
		churnIntern.m[c] = p
	}
	return p
}
