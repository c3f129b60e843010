package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"
)

var (
	smallOnce sync.Once
	smallRep  *Report
)

// smallGridReport is the small preset grid's report — 288 results,
// WallNS and InboxGrows as RunAll measured them — computed once per
// test binary.
func smallGridReport(tb testing.TB) *Report {
	tb.Helper()
	smallOnce.Do(func() {
		g, err := PresetGrid("small")
		if err != nil {
			panic(err)
		}
		smallRep = RunAll(g.Scenarios(), Options{Workers: 2, Grid: g.Name})
	})
	return smallRep
}

// canonicalResult zeroes what the canonical report zeroes in a result.
func canonicalResult(r Result) Result {
	r.WallNS, r.InboxGrows = 0, 0
	return r
}

// marshalCanonical is the reference for CanonicalBytes: the report with
// its measurement fields zeroed, through json.MarshalIndent.
func marshalCanonical(tb testing.TB, r *Report) []byte {
	tb.Helper()
	c := *r
	c.Workers, c.ElapsedNS = 0, 0
	if r.Results != nil {
		c.Results = make([]Result, len(r.Results))
		for i, res := range r.Results {
			c.Results[i] = canonicalResult(res)
		}
	}
	b, err := json.MarshalIndent(&c, "", "  ")
	if err != nil {
		tb.Fatal(err)
	}
	return append(b, '\n')
}

// indentedResult writes r in the canonical form, indented as if it sat
// depth levels deep in a document.
func indentedResult(r *Result, depth int) []byte {
	w := jsonOut{canonical: true, depth: depth}
	w.result(r)
	return w.b
}

// TestCodecMatchesEncodingJSON: every small-grid record encodes to
// json.Marshal's bytes and decodes to json.Unmarshal's value through
// the scanner, never the fallback, and the canonical report is
// json.MarshalIndent's.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	rep := smallGridReport(t)
	for i := range rep.Results {
		r := &rep.Results[i]
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendResultJSON(nil, r)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: AppendResultJSON differs from json.Marshal:\n got %s\nwant %s", r.Scenario.Name, got, want)
		}
		dec, ok := scanResult(got)
		if !ok {
			t.Fatalf("%s: the scanner rejects the encoder's record %s", r.Scenario.Name, got)
		}
		var ref Result
		if err := json.Unmarshal(got, &ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(dec, ref) || !reflect.DeepEqual(dec, *r) {
			t.Fatalf("%s: DecodeResult = %+v\njson.Unmarshal = %+v\nencoded = %+v", r.Scenario.Name, dec, ref, *r)
		}
	}
	got, err := rep.CanonicalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if want := marshalCanonical(t, rep); !bytes.Equal(got, want) {
		t.Fatalf("CanonicalBytes (%d bytes) differs from json.MarshalIndent (%d bytes)", len(got), len(want))
	}
}

// TestCodecCoversEveryField is the drift guard. It gives each exported,
// json-tagged field of the report's types a non-zero value, one at a
// time, and requires the codec to write it as encoding/json does —
// compact and canonical — and, for Result and the types inside it, to
// decode it back, and the scanner to read its compact form. A field
// added without codec support fails here, by name.
func TestCodecCoversEveryField(t *testing.T) {
	forEachField(t, reflect.TypeOf(Result{}), "Result", nil, func(path string, set func(reflect.Value)) {
		var r Result
		set(reflect.ValueOf(&r).Elem())
		want, err := json.Marshal(&r)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendResultJSON(nil, &r); !bytes.Equal(got, want) {
			t.Errorf("%s: the codec writes %s\nencoding/json writes %s", path, got, want)
		} else if back, err := DecodeResult(got); err != nil || !reflect.DeepEqual(back, r) {
			t.Errorf("%s: does not decode back (err %v):\n got %+v\nwant %+v", path, err, back, r)
		}
		c := canonicalResult(r)
		wantInd, err := json.MarshalIndent(&c, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if got := indentedResult(&r, 0); !bytes.Equal(got, wantInd) {
			t.Errorf("%s: the canonical codec writes %s\nencoding/json writes %s", path, got, wantInd)
		} else if back, err := DecodeResult(got); err != nil || !reflect.DeepEqual(back, c) {
			t.Errorf("%s: the canonical form does not decode back (err %v)", path, err)
		}
		// Escaped strings are outside the scanned form: the scanner
		// reads the same record with fill's strings unescaped.
		cutEscapes(reflect.ValueOf(&r).Elem())
		if back, ok := scanResult(AppendResultJSON(nil, &r)); !ok || !reflect.DeepEqual(back, r) {
			t.Errorf("%s: the scanner does not read the compact form back (ok %v):\n got %+v\nwant %+v", path, ok, back, r)
		}
	})
	forEachField(t, reflect.TypeOf(Group{}), "Group", nil, func(path string, set func(reflect.Value)) {
		var g Group
		set(reflect.ValueOf(&g).Elem())
		for _, canonical := range []bool{false, true} {
			w := jsonOut{canonical: canonical}
			w.group(&g)
			want, err := json.Marshal(&g)
			if canonical {
				want, err = json.MarshalIndent(&g, "", "  ")
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(w.b, want) {
				t.Errorf("%s (canonical %v): the codec writes %s\nencoding/json writes %s", path, canonical, w.b, want)
			}
		}
	})
	forEachField(t, reflect.TypeOf(Report{}), "Report", nil, func(path string, set func(reflect.Value)) {
		var rep Report
		set(reflect.ValueOf(&rep).Elem())
		w := jsonOut{}
		w.report(&rep)
		if want, err := json.Marshal(&rep); err != nil || !bytes.Equal(w.b, want) {
			t.Errorf("%s: the codec writes %s\nencoding/json writes %s", path, w.b, want)
		}
		if got, want := rep.Canonical(), marshalCanonical(t, &rep); !bytes.Equal(got, want) {
			t.Errorf("%s: CanonicalBytes writes %s\njson.MarshalIndent writes %s", path, got, want)
		}
	})
}

// forEachField calls check for the zero value of typ and then once per
// exported field not tagged json:"-", reachable through structs and
// struct pointers, with a setter that gives that one field a non-zero
// value inside a zero root.
func forEachField(t *testing.T, typ reflect.Type, name string, index []int, check func(path string, set func(root reflect.Value))) {
	if index == nil {
		check(name+" (zero)", func(reflect.Value) {})
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() || f.Tag.Get("json") == "-" {
			continue
		}
		path := name + "." + f.Name
		idx := append(append([]int{}, index...), i)
		switch {
		case f.Type.Kind() == reflect.Struct:
			forEachField(t, f.Type, path, idx, check)
		case f.Type.Kind() == reflect.Pointer && f.Type.Elem().Kind() == reflect.Struct:
			check(path+" (zero)", func(root reflect.Value) { fieldAt(root, idx) })
			forEachField(t, f.Type.Elem(), path, idx, check)
		default:
			check(path, func(root reflect.Value) { fill(t, path, fieldAt(root, idx)) })
		}
	}
}

// fieldAt walks index down from root, allocating every nil struct
// pointer on the way and at the end.
func fieldAt(v reflect.Value, index []int) reflect.Value {
	deref := func() {
		if v.Kind() == reflect.Pointer {
			if v.IsNil() {
				v.Set(reflect.New(v.Type().Elem()))
			}
			v = v.Elem()
		}
	}
	for _, i := range index {
		deref()
		v = v.Field(i)
	}
	if v.Kind() == reflect.Pointer {
		deref()
	}
	return v
}

// escapedFill starts every string fill writes: characters encoding/json
// escapes.
const escapedFill = `"<&>`

// fill gives v a distinctive non-zero value; strings carry characters
// encoding/json escapes.
func fill(t *testing.T, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(escapedFill + path)
	case reflect.Int, reflect.Int64:
		v.SetInt(-12345)
	case reflect.Uint64:
		v.SetUint(math.MaxUint64)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	default:
		t.Fatalf("%s: no test value for a %s field; teach the codec and this test the new type", path, v.Type())
	}
}

// cutEscapes cuts escapedFill from every string reachable from v
// through structs and struct pointers, leaving the path alone.
func cutEscapes(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(strings.TrimPrefix(v.String(), escapedFill))
	case reflect.Pointer:
		if !v.IsNil() {
			cutEscapes(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				cutEscapes(v.Field(i))
			}
		}
	}
}

// bs is a backslash, kept out of the case literals so their escapes
// read as what the decoder sees.
const bs = `\`

// compactRecord is a record in the form AppendResultJSON writes, which
// the scanner reads; each of the decodeCases built from it leaves that
// form in one place.
const compactRecord = `{"scenario":{"name":"x","protocol":"rotor","adversary":"none","n":7,"f":2,"seed":1,"max_rounds":9,"churn":{"joins":1,"window":3}},` +
	`"rounds":3,"messages_delivered":10,"messages_dropped":0,"all_decided":true,"decided_round_max":3,"output":"1","decided_nodes":5,"decided_of":5}`

func compactWith(old, new string) string { return strings.Replace(compactRecord, old, new, 1) }

// decodeCases are documents on which DecodeResult must return what
// json.Unmarshal returns: the same value, and an error exactly when
// json.Unmarshal returns one — ok says whether it does not. They
// include what a record from another writer could carry.
var decodeCases = []struct {
	name string
	doc  string
	ok   bool
}{
	{"unknown keys", `{"future":{"a":[1,-2.5e+3,true,false,null,"x",{}]},"rounds":3,"scenario":{"n":7,"extra":[]}}`, true},
	{"white space", " \t\n{ \"rounds\" : 3 , \"output\" : \"o\" }\r\n", true},
	{"case-folded keys", `{"ROUNDS":3,"Scenario":{"Max_Rounds":9,"NAME":"x","Churn":{"WINDOW":2}}}`, true},
	{"long s folds to s", "{\"\xc5\xbfcenario\":{\"\xc5\xbfeed\":1}}", true},
	{"escaped key", `{"r` + bs + `u006funds":4}`, true},
	{"escaped strings", `{"output":"a` + bs + `n` + bs + `"` + bs + `/` + bs + `u00e9` + bs + `ud800` + bs + `u2028","err":"` + bs + bs + `"}`, true},
	{"invalid UTF-8", "{\"output\":\"a\xffb\xc3\",\"err\":\"\xed\xa0\x80\"}", true},
	{"raw separators and DEL", "{\"output\":\"\xe2\x80\xa8\xe2\x80\xa9\x7f\"}", true},
	{"repeated keys", `{"scenario":{"name":"a","churn":{"joins":1}},"scenario":{"n":2,"churn":{"leaves":3}},"err":"x","err":""}`, true},
	{"empty churn", `{"scenario":{"churn":{}}}`, true},
	{"extremes", `{"rounds":-0,"messages_delivered":-9223372036854775808,"wall_ns":9223372036854775807,"scenario":{"seed":18446744073709551615}}`, true},
	{"names", `{"scenario":{"protocol":"consensus","adversary":"split"},"all_decided":true,"decided_na":false}`, true},
	{"empty object", `{}`, true},
	{"null document", `null`, true},
	{"null field", `{"rounds":null}`, true},
	{"deep unknown value", `{"x":` + strings.Repeat("[", 100) + strings.Repeat("]", 100) + `}`, true},
	{"compact record", compactRecord, true},
	{"compact record, extremes", compactWith(`"messages_delivered":10,"messages_dropped":0`, `"messages_delivered":-9223372036854775808,"messages_dropped":9223372036854775807`), true},
	{"compact record, escaped output", compactWith(`"output":"1"`, `"output":"`+bs+`u0031"`), true},
	{"compact record, white space", compactWith(`"rounds":3`, `"rounds": 3`), true},
	{"compact record, keys out of order", compactWith(`"n":7,"f":2`, `"f":2,"n":7`), true},

	{"compact record, leading zero", compactWith(`"rounds":3`, `"rounds":03`), false},
	{"compact record, int overflow", compactWith(`"n":7`, `"n":9223372036854775808`), false},
	{"compact record, truncated", compactRecord[:len(compactRecord)-1], false},
	{"fraction", `{"rounds":1.5}`, false},
	{"exponent", `{"rounds":1e2}`, false},
	{"int overflow", `{"rounds":9223372036854775808}`, false},
	{"negative seed", `{"scenario":{"seed":-1}}`, false},
	{"seed overflow", `{"scenario":{"seed":18446744073709551616}}`, false},
	{"string for int", `{"rounds":"3"}`, false},
	{"number for string", `{"output":3}`, false},
	{"number for bool", `{"all_decided":1}`, false},
	{"array for struct", `{"scenario":[]}`, false},
	{"trailing comma", `{"rounds":3,}`, false},
	{"trailing comma in an unknown array", `{"x":[1,]}`, false},
	{"missing colon", `{"rounds" 3}`, false},
	{"trailing data", `{"rounds":3} {}`, false},
	{"control character", "{\"output\":\"a\x01\"}", false},
	{"bad escape", `{"output":"` + bs + `x"}`, false},
	{"short unicode escape", `{"output":"` + bs + `u12"}`, false},
	{"leading zero", `{"rounds":01}`, false},
	{"bare minus", `{"x":-}`, false},
	{"unterminated", `{"output":"abc`, false},
	{"empty", ``, false},
	{"bad literal", `{"x":tru}`, false},
}

func TestDecodeResultAgreesWithUnmarshal(t *testing.T) {
	for _, tc := range decodeCases {
		if _, err := DecodeResult([]byte(tc.doc)); (err == nil) != tc.ok {
			t.Errorf("%s: DecodeResult error %v, want ok=%v", tc.name, err, tc.ok)
		}
		if diff := unmarshalDiff([]byte(tc.doc)); diff != "" {
			t.Errorf("%s: %s", tc.name, diff)
		}
	}
}

// unmarshalDiff describes how DecodeResult and json.Unmarshal differ on
// doc, in value or in error, or returns "" when they agree.
func unmarshalDiff(doc []byte) string {
	got, err := DecodeResult(doc)
	var want Result
	wantErr := json.Unmarshal(doc, &want)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("DecodeResult = %+v, %v\njson.Unmarshal = %+v, %v\ninput %q", got, err, want, wantErr, doc)
	}
	return ""
}

// TestCodecAllocs pins the codec's allocations: CanonicalBytes makes
// its one buffer (two if it ever regrows), and decoding a record
// allocates its name and output only — protocol and adversary are the
// engine's constants and the churn spec is interned.
func TestCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin only holds uninstrumented")
	}
	rep := smallGridReport(t)
	if got := testing.AllocsPerRun(5, func() { rep.CanonicalBytes() }); got > 2 {
		t.Errorf("CanonicalBytes on the %d-result report allocates %.0f times, want <= 2", len(rep.Results), got)
	}
	var static, churned []byte
	for i := range rep.Results {
		r := &rep.Results[i]
		switch {
		case r.Err != "":
		case r.Scenario.Churn == nil && static == nil:
			static = AppendResultJSON(nil, r)
		case r.Scenario.Churn != nil && churned == nil:
			churned = AppendResultJSON(nil, r)
		}
	}
	for _, c := range []struct {
		cell    string
		payload []byte
	}{{"static", static}, {"churn", churned}} {
		if _, err := DecodeResult(c.payload); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() { DecodeResult(c.payload) }); got > 2 {
			t.Errorf("decoding a %s-cell record allocates %.0f times, want <= 2 (name, output)", c.cell, got)
		}
	}
}

// fuzzPieces are the string fragments a recipe byte below
// len(fuzzPieces) stands for — each class of character encoding/json
// escapes or replaces; any other byte stands for itself.
var fuzzPieces = []string{
	`"`, bs, "<", ">", "&", "/", "\x00", "\x1f", "\b", "\f", "\n", "\r", "\t", "\x7f",
	"\xe2\x80\xa8", "\xe2\x80\xa9", "\xff", "\xc3", "\xc3\xa9", "\xed\xa0\x80",
}

// fuzzRecipe reads a Result out of fuzz bytes; past the end it reads
// zeros.
type fuzzRecipe []byte

func (f *fuzzRecipe) next() byte {
	if len(*f) == 0 {
		return 0
	}
	c := (*f)[0]
	*f = (*f)[1:]
	return c
}

func (f *fuzzRecipe) str() string {
	var b []byte
	for n := f.next() % 12; n > 0; n-- {
		if c := f.next(); int(c) < len(fuzzPieces) {
			b = append(b, fuzzPieces[c]...)
		} else {
			b = append(b, c)
		}
	}
	return string(b)
}

func (f *fuzzRecipe) u64() uint64 {
	switch f.next() % 4 {
	case 0:
		return uint64(f.next())
	case 1:
		return math.MaxUint64
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(f.next())
	}
	return v
}

func (f *fuzzRecipe) i64() int64 {
	switch f.next() % 4 {
	case 0:
		return int64(int8(f.next()))
	case 1:
		return math.MinInt64
	case 2:
		return math.MaxInt64
	}
	return int64(f.u64())
}

func (f *fuzzRecipe) int() int { return int(f.i64()) }

func (f *fuzzRecipe) bool() bool { return f.next()&1 == 1 }

func (f *fuzzRecipe) result() Result {
	r := Result{Scenario: Scenario{
		Name: f.str(), Protocol: f.str(), Adversary: f.str(),
		N: f.int(), F: f.int(), Seed: f.u64(), MaxRounds: f.int(), Pairs: f.int(),
	}}
	switch f.next() % 3 {
	case 1:
		r.Scenario.Churn = &Churn{}
	case 2:
		r.Scenario.Churn = &Churn{Joins: f.int(), Leaves: f.int(), FaultyJoins: f.int(), FaultyLeaves: f.int(), Window: f.int()}
	}
	r.Rounds, r.MessagesDelivered, r.MessagesDropped = f.int(), f.i64(), f.i64()
	r.AllDecided, r.DecidedRoundMax, r.Output, r.Err = f.bool(), f.int(), f.str(), f.str()
	r.WallNS, r.DecidedNodes, r.DecidedOf, r.DecidedNA = f.i64(), f.int(), f.int(), f.bool()
	r.Joins, r.Leaves, r.PeakMembers, r.MinMembers = f.int(), f.int(), f.int(), f.int()
	r.FinalityLag, r.InboxGrows = f.int(), f.i64()
	return r
}

// FuzzResultCodec holds the codec to encoding/json from two sides. The
// input is a recipe for a Result — strings built from the characters
// encoding/json escapes, extreme integers, each Churn shape — whose
// compact and canonical encodings must equal json.Marshal's and
// json.MarshalIndent's (at the depth results sit at in a report) and
// decode back to it; the scanner must read the compact one exactly when
// no string needs escaping. The same bytes are also a document for
// DecodeResult, which must never panic and must return what
// json.Unmarshal returns, value and error.
func FuzzResultCodec(f *testing.F) {
	for _, tc := range decodeCases {
		f.Add([]byte(tc.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recipe := fuzzRecipe(data)
		r := recipe.result()
		enc := AppendResultJSON(nil, &r)
		if want, err := json.Marshal(&r); err != nil || !bytes.Equal(enc, want) {
			t.Fatalf("AppendResultJSON differs from json.Marshal (err %v):\n got %q\nwant %q", err, enc, want)
		}
		c := canonicalResult(r)
		ind := indentedResult(&r, 2)
		if want, err := json.MarshalIndent(&c, "    ", "  "); err != nil || !bytes.Equal(ind, want) {
			t.Fatalf("canonical encoding differs from json.MarshalIndent (err %v):\n got %q\nwant %q", err, ind, want)
		}
		// json.Unmarshal of the encoding is the original with each
		// invalid UTF-8 byte replaced; with valid strings it is r itself.
		var orig Result
		if err := json.Unmarshal(enc, &orig); err != nil {
			t.Fatal(err)
		}
		valid, plain := true, true
		for _, s := range []string{r.Scenario.Name, r.Scenario.Protocol, r.Scenario.Adversary, r.Output, r.Err} {
			valid = valid && utf8.ValidString(s)
			plain = plain && scannable(s)
		}
		if valid && !reflect.DeepEqual(orig, r) {
			t.Fatalf("json.Unmarshal does not invert json.Marshal: %+v", orig)
		}
		if got, ok := scanResult(enc); ok != plain || ok && !reflect.DeepEqual(got, r) {
			t.Fatalf("the scanner reads %q to %+v (ok %v), want ok=%v", enc, got, ok, plain)
		}
		if got, err := DecodeResult(enc); err != nil || !reflect.DeepEqual(got, orig) {
			t.Fatalf("compact form decodes to %+v (err %v), want %+v", got, err, orig)
		}
		if got, err := DecodeResult(ind); err != nil || !reflect.DeepEqual(got, canonicalResult(orig)) {
			t.Fatalf("canonical form decodes to %+v (err %v)", got, err)
		}

		if diff := unmarshalDiff(data); diff != "" {
			t.Fatal(diff)
		}
	})
}

// scannable reports whether the encoder writes s as its own bytes, in
// the form the scanner reads: printable ASCII that encoding/json does
// not escape.
func scannable(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || strings.IndexByte(`"\<>&`, c) >= 0 {
			return false
		}
	}
	return true
}

// The micro-benchmarks run over the small grid's 288 results: one op
// decodes or encodes all 288 records, or renders the canonical report.

func BenchmarkDecodeResult(b *testing.B) {
	rep := smallGridReport(b)
	payloads := make([][]byte, len(rep.Results))
	for i := range rep.Results {
		payloads[i] = AppendResultJSON(nil, &rep.Results[i])
	}
	b.ReportAllocs()
	for b.Loop() {
		for _, p := range payloads {
			if _, err := DecodeResult(p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkEncodeResult(b *testing.B) {
	rep := smallGridReport(b)
	var buf []byte
	b.ReportAllocs()
	for b.Loop() {
		for i := range rep.Results {
			buf = AppendResultJSON(buf[:0], &rep.Results[i])
		}
	}
}

func BenchmarkCanonicalBytes(b *testing.B) {
	rep := smallGridReport(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := rep.CanonicalBytes(); err != nil {
			b.Fatal(err)
		}
	}
}
