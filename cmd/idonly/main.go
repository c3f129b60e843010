// Command idonly is the reproduction's one binary. Each subcommand has
// its own flags (`idonly <subcommand> -h` lists them):
//
//	idonly exp   [-run E4,E5] [-seed 42]        the experiment tables E1–E10
//	idonly sweep -grid small [-canonical]       a scenario grid, optionally through the result store
//	idonly sim   -protocol consensus -n 10 -f 3 one engine scenario, human-readable
//	idonly serve -store ./results               the sweep service over HTTP
//	idonly trace [-n 4 -f 1 | -summarize FILE]  a round-by-round dump, or a span-file summary
//	idonly vet   [-github] [packages]           the determinism analyzer
//
// Exit status 0 is success and 2 a usage error; a failed run exits 1,
// except in sweep, where a failed or non-deterministic grid exits 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"idonly/internal/obs"
)

type command struct {
	name, summary string
	run           func(args []string, stdout, stderr io.Writer) int
}

var commands = []command{
	{"exp", "regenerate the experiment tables E1–E10", runExp},
	{"sweep", "run a scenario grid (static × churn) across the worker pool", runSweep},
	{"sim", "run one engine scenario and print its outcome", runSim},
	{"serve", "serve sweeps and stored results over HTTP", runServe},
	{"trace", "dump a consensus run round by round, or summarize a span file", runTrace},
	{"vet", "run the determinism analyzer over module packages", runVet},
}

func main() {
	os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr))
}

// dispatch runs the subcommand named by args[0]; with none, or an
// unknown one, it lists the subcommands and exits 2.
func dispatch(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range commands {
			if c.name == args[0] {
				return c.run(args[1:], stdout, stderr)
			}
		}
		fmt.Fprintf(stderr, "idonly: unknown subcommand %q\n", args[0])
	}
	fmt.Fprintln(stderr, "usage: idonly <subcommand> [flags]\n\nsubcommands:")
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-6s %s\n", c.name, c.summary)
	}
	return 2
}

// parse parses args into fs with -log-level and -log-format added, and
// installs the configured slog logger on stderr. When it returns false
// the subcommand exits with code: 0 after -h, 2 on a usage error.
func parse(fs *flag.FlagSet, args []string, stderr io.Writer) (code int, ok bool) {
	fs.SetOutput(stderr)
	logs := obs.RegisterLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, false
		}
		return 2, false
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "idonly %s: unexpected argument %q\n", fs.Name(), fs.Arg(0))
		return 2, false
	}
	if _, err := logs.Setup(stderr); err != nil {
		fmt.Fprintln(stderr, err)
		return 2, false
	}
	return 0, true
}
