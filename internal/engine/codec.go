package engine

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
	"unicode"
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
// The decoder reads a JSON Result into the value json.Unmarshal would
// produce, or fails; it never accepts a document json.Unmarshal
// rejects. Unknown keys are validated and skipped, keys match
// case-insensitively the way encoding/json matches them, and a
// repeated key decodes over the value already there. It is stricter in
// two places: null is rejected for every field (no encoder writes one),
// and unknown values may nest at most maxSkipDepth deep.
//
// TestCodecCoversEveryField fails when a field of these types is added
// without codec support; FuzzResultCodec holds both sides to
// encoding/json.

// AppendResultJSON appends the compact JSON encoding of r to dst — the
// bytes json.Marshal(r) returns.
func AppendResultJSON(dst []byte, r *Result) []byte {
	w := jsonOut{b: dst}
	w.result(r)
	return w.b
}

// jsonOut appends one JSON document to b. In canonical mode it writes
// the indented form and drops the fields the canonical report zeroes:
// Workers, ElapsedNS, WallNS and InboxGrows.
type jsonOut struct {
	b         []byte
	canonical bool
	depth     int
	empty     bool // the innermost open object or array has no member yet
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

// DecodeResult decodes one JSON-encoded Result: the store's record
// payload. It returns the value json.Unmarshal would, or an error. The
// result shares no memory with data — every string is copied or is one
// of the engine's protocol and adversary constants — so the caller may
// reuse data at once. Churn specs are interned: results with equal
// specs share one *Churn, which Scenario.Churn's never-mutated contract
// allows.
func DecodeResult(data []byte) (Result, error) {
	var r Result
	d := jsonIn{data: data}
	if err := d.result(&r); err != nil {
		return Result{}, err
	}
	if d.ws(); d.pos != len(d.data) {
		return Result{}, d.fail("trailing data after the result")
	}
	return r, nil
}

// maxSkipDepth bounds how deep an unknown value may nest. encoding/json
// allows 10000 levels; the records this repository writes carry no
// unknown values at all, so the decoder rejects far sooner.
const maxSkipDepth = 64

// jsonIn is the decoder's cursor over one JSON document.
type jsonIn struct {
	data []byte
	pos  int
}

func (d *jsonIn) fail(what string) error {
	return fmt.Errorf("engine: decoding result: %s at offset %d", what, d.pos)
}

func (d *jsonIn) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek skips white space and returns the next byte, or 0 at the end.
func (d *jsonIn) peek() byte {
	if d.pos < len(d.data) && d.data[d.pos] > ' ' {
		return d.data[d.pos] // compact input: no white space to skip
	}
	d.ws()
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// object decodes one object. For each key that matches names[i] —
// exactly, or else under encoding/json's case folding — it calls
// member(i) with the cursor on the value, which member must consume;
// every other value is validated and skipped. depth is the nesting of
// the object among unknown values.
func (d *jsonIn) object(depth int, names []string, member func(i int) error) error {
	if d.peek() != '{' {
		return d.fail("want an object")
	}
	d.pos++
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	next := 0 // encoders write keys in declaration order: search from the last match on
	for {
		key, err := d.str()
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.fail("want ':' after an object key")
		}
		d.pos++
		if i := matchKey(key, names, next); i >= 0 {
			err = member(i)
			next = i + 1
		} else {
			err = d.skip(depth + 1)
		}
		if err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.fail("want ',' or '}' in an object")
		}
	}
}

// matchKey returns the index of key in names, or -1. Like
// encoding/json it prefers an exact match and falls back to a
// case-insensitive one. The exact search starts at names[from], where
// a key written in declaration order is found first.
func matchKey(key []byte, names []string, from int) int {
	if len(names) == 0 {
		return -1
	}
	for i := from; i < len(names); i++ {
		if string(key) == names[i] {
			return i
		}
	}
	for i := 0; i < from; i++ {
		if string(key) == names[i] {
			return i
		}
	}
	var buf [32]byte
	folded := foldKey(buf[:0], key)
	for i, name := range names {
		if foldedEqual(folded, name) {
			return i
		}
	}
	return -1
}

// foldKey folds key the way encoding/json folds object keys: ASCII
// letters to upper case, every other rune to the smallest rune of its
// case-folding orbit (so U+017F matches "s" and the Kelvin sign U+212A
// matches "k").
func foldKey(dst, key []byte) []byte {
	for i := 0; i < len(key); {
		if c := key[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		dst = utf8.AppendRune(dst, r)
		i += n
	}
	return dst
}

// foldedEqual reports whether a folded key equals the folded form of
// name, a json tag of plain ASCII.
func foldedEqual(folded []byte, name string) bool {
	if len(folded) != len(name) {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if folded[i] != c {
			return false
		}
	}
	return true
}

// skip validates and steps over one value of any type.
func (d *jsonIn) skip(depth int) error {
	if depth > maxSkipDepth {
		return d.fail("unknown value nested too deep")
	}
	switch c := d.peek(); {
	case c == '{':
		return d.object(depth, nil, nil)
	case c == '[':
		d.pos++
		if d.peek() == ']' {
			d.pos++
			return nil
		}
		for {
			if err := d.skip(depth + 1); err != nil {
				return err
			}
			switch d.peek() {
			case ',':
				d.pos++
			case ']':
				d.pos++
				return nil
			default:
				return d.fail("want ',' or ']' in an array")
			}
		}
	case c == '"':
		_, _, err := d.scanStr()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	}
	return d.fail("want a value")
}

func (d *jsonIn) literal(s string) error {
	if len(d.data)-d.pos < len(s) || string(d.data[d.pos:d.pos+len(s)]) != s {
		return d.fail("want " + s)
	}
	d.pos += len(s)
	return nil
}

// scanStr validates the string token at the cursor and steps over it,
// reporting whether it holds an escape and whether it is all ASCII.
func (d *jsonIn) scanStr() (escaped, ascii bool, err error) {
	if d.peek() != '"' {
		return false, false, d.fail("want a string")
	}
	d.pos++
	ascii = true
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		if plainASCII[c] {
			d.pos++
			continue
		}
		switch {
		case c == '"':
			d.pos++
			return escaped, ascii, nil
		case c == '\\':
			escaped = true
			if err := d.escape(); err != nil {
				return false, false, err
			}
		case c < ' ':
			return false, false, d.fail("control character in a string")
		default:
			if c >= utf8.RuneSelf {
				ascii = false
			}
			d.pos++
		}
	}
	return false, false, d.fail("unterminated string")
}

// plainASCII marks the bytes a string token holds as themselves: ASCII
// from the space up, except the quote and the backslash.
var plainASCII = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// escape validates the escape sequence at the cursor and steps over it.
func (d *jsonIn) escape() error {
	if d.pos+1 < len(d.data) {
		switch d.data[d.pos+1] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			d.pos += 2
			return nil
		case 'u':
			if d.pos+6 <= len(d.data) {
				ok := true
				for _, h := range d.data[d.pos+2 : d.pos+6] {
					ok = ok && ('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F')
				}
				if ok {
					d.pos += 6
					return nil
				}
			}
		}
	}
	return d.fail("bad escape in a string")
}

// str reads one string. The bytes alias the input when the token holds
// no escape and is valid UTF-8, so a caller that keeps them must copy.
// A token with an escape is the one thing decoded by encoding/json;
// invalid UTF-8 becomes U+FFFD per byte, as json.Unmarshal makes it.
func (d *jsonIn) str() ([]byte, error) {
	d.ws()
	start := d.pos
	escaped, ascii, err := d.scanStr()
	if err != nil {
		return nil, err
	}
	tok := d.data[start:d.pos]
	raw := tok[1 : len(tok)-1]
	switch {
	case escaped:
		var s string
		if err := json.Unmarshal(tok, &s); err != nil {
			return nil, d.fail("bad string: " + err.Error())
		}
		return []byte(s), nil
	case !ascii && !utf8.Valid(raw):
		out := make([]byte, 0, len(raw)+8)
		for i := 0; i < len(raw); {
			r, n := utf8.DecodeRune(raw[i:])
			out = utf8.AppendRune(out, r)
			i += n
		}
		return out, nil
	}
	return raw, nil
}

// string reads one string into memory of its own.
func (d *jsonIn) string() (string, error) {
	b, err := d.str()
	return string(b), err
}

// internedNames are the protocol and adversary constants; a decoded
// name equal to one shares its memory instead of allocating a copy.
var internedNames = []string{
	ProtoRBroadcast, ProtoRotor, ProtoConsensus, ProtoApprox, ProtoParallel, ProtoDynamic, ProtoRing,
	AdvNone, AdvSilent, AdvSplit, AdvChaos, AdvReplay,
}

func (d *jsonIn) internedName() (string, error) {
	b, err := d.str()
	if err != nil {
		return "", err
	}
	for _, s := range internedNames {
		if string(b) == s {
			return s, nil
		}
	}
	return string(b), nil
}

// number validates the number token at the cursor, steps over it and
// returns it.
func (d *jsonIn) number() ([]byte, error) {
	d.ws()
	start := d.pos
	digits := func() int {
		n := 0
		for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
			d.pos++
			n++
		}
		return n
	}
	at := func(c byte) bool {
		if d.pos < len(d.data) && d.data[d.pos] == c {
			d.pos++
			return true
		}
		return false
	}
	at('-')
	if !at('0') && digits() == 0 {
		return nil, d.fail("want a number")
	}
	if at('.') && digits() == 0 {
		return nil, d.fail("want a digit after '.'")
	}
	if at('e') || at('E') {
		if !at('+') {
			at('-')
		}
		if digits() == 0 {
			return nil, d.fail("want a digit in the exponent")
		}
	}
	return d.data[start:d.pos], nil
}

// uint64 reads a non-negative integer; like json.Unmarshal it rejects
// fractions, exponents, signs and overflow.
func (d *jsonIn) uint64() (uint64, error) {
	tok, err := d.number()
	if err != nil {
		return 0, err
	}
	u, ok := parseDigits(tok)
	if !ok {
		return 0, d.fail("want an unsigned 64-bit integer")
	}
	return u, nil
}

func (d *jsonIn) int64() (int64, error) {
	tok, err := d.number()
	if err != nil {
		return 0, err
	}
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	u, ok := parseDigits(tok)
	switch {
	case !ok || u > 1<<63 || !neg && u == 1<<63:
		return 0, d.fail("want a 64-bit integer")
	case neg:
		return -int64(u), nil
	}
	return int64(u), nil
}

func (d *jsonIn) int() (int, error) {
	v, err := d.int64()
	if err == nil && int64(int(v)) != v {
		return 0, d.fail("integer overflows int")
	}
	return int(v), err
}

// parseDigits parses a run of decimal digits, failing on any other
// byte and on overflow.
func parseDigits(tok []byte) (uint64, bool) {
	var u uint64
	for i, c := range tok {
		if c < '0' || c > '9' {
			return 0, false
		}
		if i >= 19 && (u > math.MaxUint64/10 || u*10 > math.MaxUint64-uint64(c-'0')) {
			return 0, false
		}
		u = u*10 + uint64(c-'0')
	}
	return u, len(tok) > 0
}

func (d *jsonIn) bool() (bool, error) {
	switch d.peek() {
	case 't':
		return true, d.literal("true")
	case 'f':
		return false, d.literal("false")
	}
	return false, d.fail("want true or false")
}

var resultKeys = []string{
	"scenario", "rounds", "messages_delivered", "messages_dropped", "all_decided",
	"decided_round_max", "output", "err", "wall_ns", "decided_nodes", "decided_of",
	"decided_na", "joins", "leaves", "peak_members", "min_members", "finality_lag",
	"inbox_grows",
}

func (d *jsonIn) result(r *Result) error {
	return d.object(0, resultKeys, func(i int) (err error) {
		switch resultKeys[i] {
		case "scenario":
			err = d.scenario(&r.Scenario)
		case "rounds":
			r.Rounds, err = d.int()
		case "messages_delivered":
			r.MessagesDelivered, err = d.int64()
		case "messages_dropped":
			r.MessagesDropped, err = d.int64()
		case "all_decided":
			r.AllDecided, err = d.bool()
		case "decided_round_max":
			r.DecidedRoundMax, err = d.int()
		case "output":
			r.Output, err = d.string()
		case "err":
			r.Err, err = d.string()
		case "wall_ns":
			r.WallNS, err = d.int64()
		case "decided_nodes":
			r.DecidedNodes, err = d.int()
		case "decided_of":
			r.DecidedOf, err = d.int()
		case "decided_na":
			r.DecidedNA, err = d.bool()
		case "joins":
			r.Joins, err = d.int()
		case "leaves":
			r.Leaves, err = d.int()
		case "peak_members":
			r.PeakMembers, err = d.int()
		case "min_members":
			r.MinMembers, err = d.int()
		case "finality_lag":
			r.FinalityLag, err = d.int()
		case "inbox_grows":
			r.InboxGrows, err = d.int64()
		}
		return err
	})
}

var scenarioKeys = []string{"name", "protocol", "adversary", "n", "f", "seed", "max_rounds", "pairs", "churn"}

func (d *jsonIn) scenario(s *Scenario) error {
	return d.object(0, scenarioKeys, func(i int) (err error) {
		switch scenarioKeys[i] {
		case "name":
			s.Name, err = d.string()
		case "protocol":
			s.Protocol, err = d.internedName()
		case "adversary":
			s.Adversary, err = d.internedName()
		case "n":
			s.N, err = d.int()
		case "f":
			s.F, err = d.int()
		case "seed":
			s.Seed, err = d.uint64()
		case "max_rounds":
			s.MaxRounds, err = d.int()
		case "pairs":
			s.Pairs, err = d.int()
		case "churn":
			s.Churn, err = d.churn(s.Churn)
		}
		return err
	})
}

var churnKeys = []string{"joins", "leaves", "faulty_joins", "faulty_leaves", "window"}

// churn decodes a churn spec over prev, the spec a repeated "churn"
// key already decoded (json.Unmarshal decodes into the value a pointer
// already holds), and returns the interned result.
func (d *jsonIn) churn(prev *Churn) (*Churn, error) {
	var c Churn
	if prev != nil {
		c = *prev
	}
	err := d.object(0, churnKeys, func(i int) (err error) {
		switch churnKeys[i] {
		case "joins":
			c.Joins, err = d.int()
		case "leaves":
			c.Leaves, err = d.int()
		case "faulty_joins":
			c.FaultyJoins, err = d.int()
		case "faulty_leaves":
			c.FaultyLeaves, err = d.int()
		case "window":
			c.Window, err = d.int()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return internChurn(c), nil
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
