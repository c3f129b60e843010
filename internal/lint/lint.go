// Package lint is the idonly-vet analyzer suite: repo-specific static
// analysis that turns the invariants the runtime test planes prove —
// deterministic schedules, digest-stable cache keys, reflection-free
// hot paths, greppable metric names — into compile-time diagnostics
// with file:line positions.
//
// The suite is deliberately dependency-free: packages are loaded with
// `go list -json` plus go/types' source importer (load.go), and the
// analyzers work on go/ast + go/types directly, so the root module
// stays zero-dep.
//
// Two inline directives suppress intentional findings, each with a
// mandatory justification:
//
//	//lint:ordered <why>    — this map iteration is order-independent
//	//lint:wallclock <why>  — this clock read never affects results
//
// A directive that suppresses nothing is itself a diagnostic, so stale
// annotations cannot accumulate.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: an analyzer name, a position, and a
// message describing the violated contract.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one contract checker. Package is called once per loaded
// package.
type Analyzer interface {
	Name() string
	Doc() string
	Package(pkg *Package) []Diagnostic
}

// Config points the analyzers at the repo's contract surfaces. The
// golden-diagnostic harness narrows these onto seeded testdata
// packages; everything else uses DefaultConfig.
type Config struct {
	// CriticalPaths are import-path substrings of the schedule-critical
	// packages the determinism analyzer covers. SortFuncs names
	// repo-specific sorting functions (package path -> function names)
	// the feeds-a-sort exemption recognizes alongside sort.* and
	// slices.Sort*.
	CriticalPaths []string
	SortFuncs     map[string][]string

	// HotPaths are the import-path substrings under the hot-path
	// allocation rules, with HotAllowFiles naming the designated
	// fallback files (base names) exempt from them.
	HotPaths      []string
	HotAllowFiles []string

	// ScenarioType/DigestMethod name the cached-scenario struct and its
	// content-address method; DigestExclude lists the fields that are
	// deliberately not part of the cache key (execution strategy, never
	// results).
	ScenarioType  string
	DigestMethod  string
	DigestExclude []string

	// ObsPath is the metrics package; metric names passed to its
	// Registry must be string literals prefixed with MetricPrefix.
	ObsPath      string
	MetricPrefix string
}

// DefaultConfig is the repo's contract surface.
func DefaultConfig() Config {
	return Config{
		CriticalPaths: []string{
			"idonly/internal/sim",
			"idonly/internal/core/",
			"idonly/internal/quorum",
			"idonly/internal/async",
			"idonly/internal/adversary",
			"idonly/internal/engine",
		},
		SortFuncs: map[string][]string{
			"idonly/internal/ids": {"SortIDs"},
		},
		HotPaths:      []string{"idonly/internal/sim"},
		HotAllowFiles: []string{"fallback.go"},
		ScenarioType:  "Scenario",
		DigestMethod:  "Digest",
		DigestExclude: []string{"SimWorkers", "NoFastPath"},
		ObsPath:       "idonly/internal/obs",
		MetricPrefix:  "idonly_",
	}
}

// Analyzers returns a fresh instance of the full suite.
func Analyzers(cfg Config) []Analyzer {
	return []Analyzer{
		newDeterminism(cfg),
		newDigestDrift(cfg),
		newHotPath(cfg),
		newObsNaming(cfg),
	}
}

// Run applies the analyzers (all of them when only is empty, else the
// named subset) to the packages and returns position-sorted findings,
// including one per directive that suppressed nothing.
func Run(cfg Config, pkgs []*Package, only ...string) []Diagnostic {
	var active []Analyzer
	for _, a := range Analyzers(cfg) {
		if len(only) == 0 {
			active = append(active, a)
			continue
		}
		for _, name := range only {
			if a.Name() == name {
				active = append(active, a)
			}
		}
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range active {
			diags = append(diags, a.Package(pkg)...)
		}
	}
	// Unused directives are stale annotations: the finding they excused
	// is gone, so the justification must go too. Only meaningful when
	// the analyzer that consumes the verb actually ran.
	verbs := map[string]bool{}
	for _, a := range active {
		switch a.Name() {
		case "determinism":
			verbs[dirOrdered] = true
			verbs[dirWallclock] = true
		}
	}
	for _, pkg := range pkgs {
		for _, dirs := range pkg.directives {
			for _, d := range dirs {
				if d.used || !verbs[d.verb] {
					continue
				}
				diags = append(diags, Diagnostic{
					Analyzer: "directives",
					Pos:      d.pos,
					Message:  fmt.Sprintf("//lint:%s directive suppresses nothing; remove it", d.verb),
				})
			}
		}
	}
	for i := range diags {
		diags[i].File = diags[i].Pos.Filename
		diags[i].Line = diags[i].Pos.Line
		diags[i].Col = diags[i].Pos.Column
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// Directive verbs.
const (
	dirOrdered   = "ordered"   // map iteration is order-independent
	dirWallclock = "wallclock" // clock read never affects results
)

// directive is one //lint:<verb> <why> comment.
type directive struct {
	verb string
	why  string
	pos  token.Position
	used bool
}

// parseDirectives extracts //lint: comments per file. A directive with
// an empty justification is recorded with why == "" and rejected at
// lookup time, so the lazy form is still an error at its use site.
func parseDirectives(fset *token.FileSet, files []*ast.File) map[string][]*directive {
	out := make(map[string][]*directive)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:")
				if !ok {
					continue
				}
				verb, why, _ := strings.Cut(rest, " ")
				pos := fset.Position(c.Pos())
				out[pos.Filename] = append(out[pos.Filename], &directive{
					verb: verb,
					why:  strings.TrimSpace(why),
					pos:  pos,
				})
			}
		}
	}
	return out
}

// suppressed reports whether a directive with the verb covers the node
// position: same line (trailing comment) or the line above. A matching
// directive with no justification does not suppress — the why is the
// point — but is still marked used so the only finding is the missing
// justification's.
func (p *Package) suppressed(verb string, pos token.Pos) (ok bool, bare *directive) {
	position := p.Fset.Position(pos)
	for _, d := range p.directives[position.Filename] {
		if d.verb != verb || (d.pos.Line != position.Line && d.pos.Line != position.Line-1) {
			continue
		}
		d.used = true
		if d.why == "" {
			return false, d
		}
		return true, nil
	}
	return false, nil
}

// matchesAny reports whether path contains any of the substrings.
func matchesAny(path string, subs []string) bool {
	for _, s := range subs {
		if strings.Contains(path, s) {
			return true
		}
	}
	return false
}

// pkgNameOf resolves a selector base to an imported package path, or ""
// when the expression is not a package qualifier.
func pkgNameOf(info *types.Info, x ast.Expr) string {
	id, ok := x.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}
