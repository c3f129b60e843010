package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"idonly/internal/adversary"
	"idonly/internal/core/consensus"
	"idonly/internal/engine"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// runTrace has two modes. By default it runs a small consensus
// instance and dumps every send of every correct node round by round —
// the fastest way to see the five-round phase structure (input / prefer
// / strongprefer / rotor / evaluate) on the wire. With -summarize it
// reads a sweep's span stream (`idonly sweep -trace-out`, or a
// /v1/sweep?trace=1 response; '-' = stdin) and prints per-phase totals,
// the cache split and the k slowest scenarios.
//
//	idonly trace -n 4 -f 1 -rounds 14
//	idonly sweep -grid small -trace-out trace.ndjson
//	idonly trace -summarize trace.ndjson -top 5
//	curl -s -X POST 'localhost:8080/v1/sweep?trace=1' -d '{"preset":"small"}' | idonly trace -summarize -
func runTrace(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	n := fs.Int("n", 4, "total nodes")
	f := fs.Int("f", 1, "Byzantine nodes")
	seed := fs.Uint64("seed", 1, "workload seed")
	rounds := fs.Int("rounds", 14, "max rounds to trace")
	summarize := fs.String("summarize", "", "summarize a sweep trace file instead of running ('-' = stdin)")
	topK := fs.Int("top", 10, "with -summarize: show the k slowest scenarios")
	if code, ok := parse(fs, args, stderr); !ok {
		return code
	}

	if *summarize != "" {
		if *topK < 1 {
			slog.Error("-top must be at least 1", "top", *topK)
			return 2
		}
		if err := summarizeTrace(stdout, *summarize, *topK); err != nil {
			slog.Error("summarizing trace", "err", err)
			return 1
		}
		return 0
	}
	if *n < 1 || *f < 0 || *f >= *n {
		slog.Error("need n ≥ 1 and 0 ≤ f < n", "n", *n, "f", *f)
		return 2
	}
	if *rounds < 1 {
		slog.Error("-rounds must be at least 1", "rounds", *rounds)
		return 2
	}

	all := ids.Sparse(ids.NewRand(*seed), *n)
	correct, faulty := all[:*n-*f], all[*n-*f:]
	short := make(map[ids.ID]string)
	for i, id := range all {
		short[id] = fmt.Sprintf("N%d", i)
	}
	var nodes []*consensus.Node
	for i, id := range correct {
		nodes = append(nodes, consensus.New(id, float64(i%2)))
	}
	var adv sim.Adversary
	if *f > 0 {
		adv = adversary.ConsSplit{X1: 0, X2: 1, All: all}
	}

	lastRound := 0
	cfg := sim.Config{
		MaxRounds:          *rounds,
		StopWhenAllDecided: true,
		Observer: func(round int, from ids.ID, sends []sim.Send) {
			if round != lastRound {
				fmt.Fprintf(stdout, "--- round %d (%s) ---\n", round, phaseName(round))
				lastRound = round
			}
			for _, s := range sends {
				to := "∗"
				if s.To != sim.Broadcast {
					to = short[s.To]
				}
				fmt.Fprintf(stdout, "  %s → %s: %#v\n", short[from], to, s.Payload)
			}
		},
	}
	m := sim.NewRunner(cfg, nodes, faulty, adv).Run(nil)

	fmt.Fprintln(stdout, "\noutcome:")
	for _, nd := range nodes {
		if !nd.Decided() {
			fmt.Fprintf(stdout, "  %s (id %d) undecided after %d rounds\n", short[nd.ID()], nd.ID(), m.Rounds)
			continue
		}
		fmt.Fprintf(stdout, "  %s (id %d) decided %v in round %d\n",
			short[nd.ID()], nd.ID(), nd.Value(), nd.DecidedRound())
	}
	return 0
}

// summarizeTrace reads the span stream at path and prints the
// aggregate view: totals, the cache/error split, per-phase time, and
// the topK slowest scenarios with their phase breakdown.
func summarizeTrace(w io.Writer, path string, topK int) error {
	r := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	spans, err := engine.ReadSpans(r)
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		return fmt.Errorf("no span records in %s (need idonly sweep -trace-out or /v1/sweep?trace=1 output)", path)
	}
	sum := engine.SummarizeSpans(spans)
	fmt.Fprintf(w, "spans     %d (%d cached, %d computed, %d errors)\n",
		sum.Spans, sum.Cached, sum.Spans-sum.Cached, sum.Errors)
	fmt.Fprintf(w, "rounds    %d\n", sum.Rounds)
	fmt.Fprintf(w, "messages  %d\n", sum.Messages)
	fmt.Fprintf(w, "phase     build %v, run %v, wall %v (summed over scenarios)\n",
		time.Duration(sum.BuildNS).Round(time.Microsecond),
		time.Duration(sum.RunNS).Round(time.Microsecond),
		time.Duration(sum.WallNS).Round(time.Microsecond))
	slow := engine.SlowestSpans(spans, topK)
	fmt.Fprintf(w, "\nslowest %d scenarios:\n", len(slow))
	for _, sp := range slow {
		tag := ""
		if sp.Cached {
			tag = " [cached]"
		}
		if sp.Err != "" {
			tag += " [error]"
		}
		fmt.Fprintf(w, "  %10v  seq=%-5d worker=%-3d build=%-10v run=%-10v rounds=%-5d %s (%s)%s\n",
			time.Duration(sp.WallNS).Round(time.Microsecond), sp.Seq, sp.Worker,
			time.Duration(sp.BuildNS).Round(time.Microsecond),
			time.Duration(sp.RunNS).Round(time.Microsecond),
			sp.Rounds, sp.Scenario, sp.Digest[:min(12, len(sp.Digest))], tag)
	}
	return nil
}

func phaseName(round int) string {
	if round <= consensus.InitRounds {
		return fmt.Sprintf("init %d", round)
	}
	pos := (round - consensus.InitRounds - 1) % consensus.PhaseRounds
	phase := (round-consensus.InitRounds-1)/consensus.PhaseRounds + 1
	names := []string{"A: input", "B: prefer", "C: strongprefer", "D: rotor", "E: evaluate"}
	return fmt.Sprintf("phase %d, %s", phase, names[pos])
}
