package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"idonly/internal/lint"
)

// runVet runs the determinism analyzer (internal/lint) over module
// packages (default ./...) and prints one line per finding with its
// file:line position; -github adds a ::error workflow command per
// finding so it annotates the offending line on a pull request. Exit
// status: 0 clean, 1 findings, 2 a load or usage error.
func runVet(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	github := fs.Bool("github", false, "also emit GitHub ::error workflow commands per finding")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: idonly vet [flags] [packages]\n\nThe determinism analyzer flags schedule-dependent constructs in the\nschedule-critical packages; see DESIGN.md \"Enforced invariants\".\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "idonly vet:", err)
		return 2
	}
	wd, err := os.Getwd()
	if err != nil {
		return fail(err)
	}
	loader, err := lint.NewLoader(wd)
	if err != nil {
		return fail(err)
	}
	paths, err := loader.List(patterns...)
	if err != nil {
		return fail(err)
	}
	var pkgs []*lint.Package
	for _, path := range paths {
		pkg, err := loader.Load(path)
		if err != nil {
			return fail(err)
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
		fmt.Fprintln(stdout, d)
		if *github {
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d::[%s] %s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, escapeGitHub(d.Message))
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "idonly vet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}

// escapeGitHub escapes workflow-command message data.
var escapeGitHub = strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace
