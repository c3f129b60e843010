package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"strings"

	"idonly/internal/engine"
)

// runSim runs one engine.Scenario — the same builder every grid cell
// uses, so a printed digest addresses the stored result of the
// identical cell — and prints its outcome.
//
//	idonly sim -protocol consensus -n 10 -f 3 -adversary split
//	idonly sim -protocol rbroadcast -n 31 -f 10
//	idonly sim -protocol parallel -n 7 -f 2 -pairs 4
//	idonly sim -protocol dynamic -n 10 -f 2 -churn j1,l1,fj1,fl1
//	idonly sim -protocol ring -n 1000 -f 0
//
// -churn takes the grids' compact spec: jN correct joins and lN
// graceful leaves (dynamic only), fjN late faulty joins and flN mid-run
// faulty removals (any protocol); the join/leave rounds resolve from
// the seed. The size must satisfy n > 3f: running outside the bound is
// experiment E2's job.
func runSim(args []string, stdout, stderr io.Writer) int {
	var s engine.Scenario
	fs := flag.NewFlagSet("sim", flag.ContinueOnError)
	fs.StringVar(&s.Protocol, "protocol", engine.ProtoConsensus,
		strings.Join(append(engine.Protocols(), engine.ProtoRing), " | "))
	fs.IntVar(&s.N, "n", 10, "total nodes (not known to the nodes themselves)")
	fs.IntVar(&s.F, "f", 3, "Byzantine nodes (not known to the nodes themselves)")
	fs.StringVar(&s.Adversary, "adversary", engine.AdvSilent, strings.Join(engine.Adversaries(), " | ")+"; f = 0 forces none")
	fs.Uint64Var(&s.Seed, "seed", 1, "workload seed")
	fs.IntVar(&s.Pairs, "pairs", 0, "input pairs (parallel); 0 = the engine default, 4")
	fs.IntVar(&s.MaxRounds, "rounds", 0, "max protocol rounds; 0 = protocol default")
	churn := fs.String("churn", "", "churn spec, e.g. j1,l1,fj1,fl1")
	if code, ok := parse(fs, args, stderr); !ok {
		return code
	}
	var err error
	if s.Pairs < 0 || s.MaxRounds < 0 {
		err = fmt.Errorf("-pairs %d -rounds %d: neither may be negative", s.Pairs, s.MaxRounds)
	} else if *churn != "" {
		var spec engine.Churn
		if spec, err = engine.ParseChurn(*churn); !spec.IsZero() {
			s.Churn = &spec
		}
	}
	if err == nil {
		err = s.Validate()
	}
	if err != nil {
		slog.Error(err.Error())
		return 2
	}
	if s.F == 0 {
		s.Adversary = engine.AdvNone
	}

	res := s.Run()
	if res.Err != "" {
		slog.Error("run failed", "scenario", res.Scenario.Name, "err", res.Err)
		return 1
	}
	fmt.Fprintf(stdout, "scenario %s\n", res.Scenario.Name)
	fmt.Fprintf(stdout, "digest   %s\n", res.Scenario.Digest())
	fmt.Fprintf(stdout, "rounds=%d messages=%d duplicates-dropped=%d\n",
		res.Rounds, res.MessagesDelivered, res.MessagesDropped)
	fmt.Fprintf(stdout, "joins=%d leaves=%d members peak=%d min=%d\n",
		res.Joins, res.Leaves, res.PeakMembers, res.MinMembers)
	if res.DecidedNA {
		fmt.Fprintf(stdout, "decided=n/a finality-lag=%d\n", res.FinalityLag)
	} else {
		fmt.Fprintf(stdout, "decided=%d/%d\n", res.DecidedNodes, res.DecidedOf)
	}
	fmt.Fprintf(stdout, "outcome  %s\n", res.Output)
	return 0
}
