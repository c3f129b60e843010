package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader(".")
})

// TestDeterminismGolden is the golden-diagnostic check: testdata/src/determ
// seeds violations annotated with want comments,
//
//	bad() // want `regex` `another regex`
//
// and the test asserts an exact bijection between the comments and the
// diagnostics the analyzer emits — every finding must be wanted on its
// line, every want must be matched. Missing findings and spurious
// findings both fail, so the seeded package doubles as a regression
// net for the analyzer messages themselves.
func TestDeterminismGolden(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	dir := filepath.Join("testdata", "src", "determ")
	p, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	cfg := DefaultConfig()
	cfg.CriticalPaths = []string{"testdata/src/determ"}
	diags := Run(cfg, []*Package{p})
	if len(diags) == 0 {
		t.Fatalf("the analyzer found nothing in the seeded package %s", dir)
	}

	wants := parseWants(t, p.GoFiles)
	for _, d := range diags {
		if !wants.match(d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants.unmatched() {
		t.Errorf("%s:%d: want %q matched no diagnostic", w.file, w.line, w.rx)
	}
}

type want struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

type wantSet struct{ wants []*want }

func (ws *wantSet) match(d Diagnostic) bool {
	for _, w := range ws.wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.rx.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

func (ws *wantSet) unmatched() []*want {
	var out []*want
	for _, w := range ws.wants {
		if !w.matched {
			out = append(out, w)
		}
	}
	return out
}

var (
	wantRx  = regexp.MustCompile("// want ((?:`[^`]*`[ \t]*)+)")
	quoteRx = regexp.MustCompile("`[^`]*`")
)

// parseWants scans the raw source for want comments. Backtick-quoted
// regexes keep the escaping sane (the messages quote things with ").
func parseWants(t *testing.T, files []string) *wantSet {
	t.Helper()
	ws := &wantSet{}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("reading %s: %v", file, err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRx.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, q := range quoteRx.FindAllString(m[1], -1) {
				rx, err := regexp.Compile(strings.Trim(q, "`"))
				if err != nil {
					t.Fatalf("%s:%d: bad want regex %s: %v", file, i+1, q, err)
				}
				ws.wants = append(ws.wants, &want{file: file, line: i + 1, rx: rx})
			}
		}
	}
	if len(ws.wants) == 0 {
		t.Fatal("no want comments found in testdata package")
	}
	return ws
}

// TestSelfCheck runs the analyzer over the real module with the real
// config — the in-process twin of the CI `idonly vet ./...` gate. The
// tree must be clean: every intentional exception is annotated, so any
// diagnostic here is a regression.
func TestSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped with -short")
	}
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	paths, err := loader.List("./...")
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []*Package
	for _, path := range paths {
		p, err := loader.Load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		pkgs = append(pkgs, p)
	}
	var failures []string
	for _, d := range Run(DefaultConfig(), pkgs) {
		failures = append(failures, d.String())
	}
	if len(failures) > 0 {
		t.Errorf("the tree violates its own contracts:\n%s", strings.Join(failures, "\n"))
	}
}
