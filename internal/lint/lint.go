// Package lint is `idonly vet`'s one analyzer, determinism: repo-specific
// static analysis for the one invariant no runtime test can pin
// reliably — a schedule that depends on map order or the wall clock
// makes a pinned result flaky rather than failing — reported as
// diagnostics with file:line positions. The digest, naming and hot-path
// contracts are checked on the running program by tests instead.
//
// The analyzer is deliberately dependency-free: packages are loaded
// with `go list -json` plus go/types' source importer (load.go), and it
// works on go/ast + go/types directly, so the root module stays
// zero-dep.
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

// Diagnostic is one finding: its source (determinism, or directives for
// a stale annotation), a position, and a message describing the
// violated contract.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Config points the analyzer at the repo's schedule-critical code. The
// golden-diagnostic test narrows it onto a seeded testdata package;
// everything else uses DefaultConfig.
type Config struct {
	// CriticalPaths are import-path substrings of the schedule-critical
	// packages the analyzer covers. SortFuncs names repo-specific
	// sorting functions (package path -> function names) the
	// feeds-a-sort exemption recognizes alongside sort.* and
	// slices.Sort*.
	CriticalPaths []string
	SortFuncs     map[string][]string
}

// DefaultConfig covers the repo's schedule-critical packages.
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
	}
}

// Run applies the determinism analyzer to the packages and returns
// position-sorted findings, including one per directive that
// suppressed nothing.
func Run(cfg Config, pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, determinism(cfg, pkg)...)
	}
	// Unused directives are stale annotations: the finding they excused
	// is gone, so the justification must go too.
	for _, pkg := range pkgs {
		for _, dirs := range pkg.directives {
			for _, d := range dirs {
				if d.used || (d.verb != dirOrdered && d.verb != dirWallclock) {
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
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
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
