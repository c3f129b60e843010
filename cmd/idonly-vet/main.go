// idonly-vet runs the repo's determinism analyzer (internal/lint) over
// module packages and reports violations with file:line positions.
//
// Usage:
//
//	idonly-vet [-github] [packages]
//
// Packages default to ./... . Exit status: 0 clean, 1 findings,
// 2 load/usage error.
//
// Output is one line per finding; -github additionally emits ::error
// workflow commands so findings annotate the offending lines on pull
// requests.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"idonly/internal/lint"
)

func main() {
	github := flag.Bool("github", false, "also emit GitHub ::error workflow commands per finding")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: idonly-vet [flags] [packages]\n\nThe determinism analyzer flags schedule-dependent constructs in the\nschedule-critical packages; see DESIGN.md \"Enforced invariants\".\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(wd)
	if err != nil {
		fatal(err)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	paths, err := loader.List(patterns...)
	if err != nil {
		fatal(err)
	}
	var pkgs []*lint.Package
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}

	diags := lint.Run(lint.DefaultConfig(), pkgs)
	for _, d := range diags {
		// Positions relative to the module root read better in CI logs
		// and are what GitHub annotations require.
		if rel, ok := strings.CutPrefix(d.Pos.Filename, loader.ModuleRoot+string(os.PathSeparator)); ok {
			d.Pos.Filename = rel
		}
		fmt.Println(d)
		if *github {
			fmt.Printf("::error file=%s,line=%d,col=%d::[%s] %s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, escapeGitHub(d.Message))
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "idonly-vet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

// escapeGitHub escapes workflow-command message data.
func escapeGitHub(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "idonly-vet:", err)
	os.Exit(2)
}
