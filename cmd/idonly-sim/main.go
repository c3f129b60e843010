// Command idonly-sim runs a single protocol instance of the id-only
// library with configurable size, fault count, adversary and seed, and
// prints per-node outcomes plus run metrics. It covers all six paper
// algorithms, like the scenario engine does.
//
// Usage:
//
//	idonly-sim -protocol consensus -n 10 -f 3 -adversary split
//	idonly-sim -protocol rbroadcast -n 31 -f 10
//	idonly-sim -protocol rotor -n 13 -f 4 -adversary hidden
//	idonly-sim -protocol approx -n 10 -f 3 -iters 8
//	idonly-sim -protocol parallel -n 7 -f 2 -pairs 4
//	idonly-sim -protocol dynamic -n 10 -f 3 -sessions 3 -rounds 50
//	idonly-sim -protocol dynamic -n 10 -f 2 -churn j1,l1,fj1,fl1
//	idonly-sim -protocol consensus -n 10 -f 3 -churn fj1,fl1
//
// -churn takes the same compact spec the engine's grids use (jN
// correct joins, lN graceful leaves — dynamic protocol only — fjN late
// faulty joins, flN mid-run faulty removals, any protocol) and routes
// the run through the scenario engine so the join/leave rounds resolve
// from the seed exactly as a grid cell's would.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"slices"
	"strings"

	"idonly/internal/adversary"
	"idonly/internal/core/approx"
	"idonly/internal/core/consensus"
	"idonly/internal/core/dynamic"
	"idonly/internal/core/parallel"
	"idonly/internal/core/rbroadcast"
	"idonly/internal/core/rotor"
	"idonly/internal/engine"
	"idonly/internal/ids"
	"idonly/internal/obs"
	"idonly/internal/sim"
)

// fatalf logs through the shared slog setup and exits; stdout stays
// reserved for run output.
func fatalf(format string, args ...any) {
	slog.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}

func main() {
	var (
		protocol = flag.String("protocol", "consensus", "rbroadcast | rotor | consensus | approx | parallel | dynamic")
		n        = flag.Int("n", 10, "total nodes (not known to the nodes themselves)")
		f        = flag.Int("f", 3, "Byzantine nodes (not known to the nodes themselves)")
		adv      = flag.String("adversary", "silent", "silent | split | stubborn | hidden | replay (engine names with -churn)")
		seed     = flag.Uint64("seed", 1, "workload seed")
		iters    = flag.Int("iters", 8, "iterations (approx)")
		pairs    = flag.Int("pairs", 3, "input pairs (parallel)")
		sessions = flag.Int("sessions", 3, "witnessed events per correct node (dynamic)")
		rounds   = flag.Int("rounds", 0, "max protocol rounds; 0 = protocol default (dynamic: 5n/2+25)")
		churn    = flag.String("churn", "", "churn spec (e.g. j1,l1,fj1,fl1); runs through the scenario engine")
	)
	logFlags := obs.RegisterLogFlags(flag.CommandLine)
	flag.Parse()
	if _, err := logFlags.Setup(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := checkSize(*n, *f); err != nil {
		slog.Error(err.Error())
		os.Exit(2)
	}
	if err := checkNames(*protocol, *adv, *churn != ""); err != nil {
		slog.Error(err.Error())
		os.Exit(2)
	}

	if *churn != "" {
		// The engine scenario path uses its own per-protocol workload;
		// flags it cannot express are ignored, loudly.
		var ignored []string
		flag.Visit(func(fl *flag.Flag) {
			if fl.Name == "sessions" || fl.Name == "iters" {
				ignored = append(ignored, "-"+fl.Name)
			}
		})
		if len(ignored) > 0 {
			slog.Warn("flags ignored with -churn (the scenario engine defines its own workload)",
				"flags", strings.Join(ignored, ", "))
		}
		if err := runScenario(*protocol, *adv, *churn, *n, *f, *rounds, *pairs, *seed); err != nil {
			fatalf("%v", err)
		}
		return
	}

	if *n <= 3**f {
		slog.Warn("outside the algorithms' resiliency; expect violations", "n", *n, "3f", 3**f)
	}
	rng := ids.NewRand(*seed)
	all := ids.Sparse(rng, *n)
	correct := all[:*n-*f]
	faulty := all[*n-*f:]

	pick := func() sim.Adversary {
		switch *adv {
		case "silent":
			return adversary.Silent{}
		case "split":
			return adversary.ConsSplit{X1: 0, X2: 1, All: all}
		case "stubborn":
			return adversary.ConsStubborn{X: 9}
		case "hidden":
			per := make(map[ids.ID]sim.Adversary)
			for i, id := range faulty {
				per[id] = &adversary.RotorHidden{Subset: correct[:1+i%len(correct)], All: all, X1: -1, X2: -2}
			}
			return adversary.Compose{PerNode: per}
		case "replay":
			return adversary.Replay{}
		default:
			fatalf("unknown adversary %q", *adv)
			return nil
		}
	}
	var a sim.Adversary
	if *f > 0 {
		a = pick()
	}

	switch *protocol {
	case "rbroadcast":
		var nodes []*rbroadcast.Node
		var procs []sim.Process
		for i, id := range correct {
			nd := rbroadcast.New(id, i == 0, "payload")
			nodes = append(nodes, nd)
			procs = append(procs, nd)
		}
		r := sim.NewRunner(sim.Config{MaxRounds: 10}, procs, faulty, a)
		m := r.Run(func(round int) bool { return round >= 6 })
		report(m)
		for _, nd := range nodes {
			if round, ok := nd.Accepted("payload", correct[0]); ok {
				fmt.Printf("node %12d accepted in round %d (nv=%d)\n", nd.ID(), round, nd.NV())
			} else {
				fmt.Printf("node %12d did NOT accept\n", nd.ID())
			}
		}

	case "rotor":
		var nodes []*rotor.Node
		var procs []sim.Process
		for i, id := range correct {
			nd := rotor.New(id, float64(i))
			nodes = append(nodes, nd)
			procs = append(procs, nd)
		}
		r := sim.NewRunner(sim.Config{MaxRounds: 10 * *n, StopWhenAllDecided: true}, procs, faulty, a)
		m := r.Run(nil)
		report(m)
		for _, nd := range nodes {
			fmt.Printf("node %12d terminated round %d; selections %v\n", nd.ID(), nd.DoneRound(), nd.Selected())
		}

	case "consensus":
		var nodes []*consensus.Node
		var procs []sim.Process
		for i, id := range correct {
			nd := consensus.New(id, float64(i%2))
			nodes = append(nodes, nd)
			procs = append(procs, nd)
		}
		r := sim.NewRunner(sim.Config{StopWhenAllDecided: true}, procs, faulty, a)
		m := r.Run(nil)
		report(m)
		for _, nd := range nodes {
			fmt.Printf("node %12d decided %v in round %d (phases %d, nv %d)\n",
				nd.ID(), nd.Value(), nd.DecidedRound(), nd.Phases(), nd.NV())
		}

	case "approx":
		var nodes []*approx.Iterated
		var procs []sim.Process
		for i, id := range correct {
			nd := approx.NewIterated(id, float64(10*i), *iters)
			nodes = append(nodes, nd)
			procs = append(procs, nd)
		}
		if *f > 0 {
			a = adversary.ApproxOutlier{Low: -1e6, High: 1e6, All: all}
		}
		r := sim.NewRunner(sim.Config{MaxRounds: *iters + 2, StopWhenAllDecided: true}, procs, faulty, a)
		m := r.Run(nil)
		report(m)
		for _, nd := range nodes {
			fmt.Printf("node %12d converged to %.6f (history %v)\n", nd.ID(), nd.Value(), nd.History)
		}

	case "parallel":
		var nodes []*parallel.Node
		var procs []sim.Process
		for _, id := range correct {
			inputs := make(map[parallel.PairID]parallel.Val)
			for p := 0; p < *pairs; p++ {
				inputs[parallel.PairID(p+1)] = parallel.V(fmt.Sprintf("value-%d", p))
			}
			nd := parallel.NewNode(id, inputs)
			nodes = append(nodes, nd)
			procs = append(procs, nd)
		}
		r := sim.NewRunner(sim.Config{StopWhenAllDecided: true}, procs, faulty, a)
		m := r.Run(nil)
		report(m)
		for _, nd := range nodes {
			fmt.Printf("node %12d output %v\n", nd.ID(), nd.Outputs())
		}

	case "dynamic":
		maxRounds := *rounds
		if maxRounds <= 0 {
			maxRounds = 5**n/2 + 25
		}
		var nodes []*dynamic.Node
		var procs []sim.Process
		founders := all // faulty founders are members of the initial S too
		for i, id := range correct {
			// Each node witnesses -sessions events, rotating through the
			// founders one event per round so every session has work.
			witness := make(map[int][]string)
			injected := 0
			for r := 1; r <= maxRounds && injected < *sessions; r++ {
				if r%len(correct) == i {
					witness[r] = []string{fmt.Sprintf("ev-%d-%d", i, r)}
					injected++
				}
			}
			nd := dynamic.New(dynamic.Config{ID: id, Founders: founders, Witness: witness})
			nodes = append(nodes, nd)
			procs = append(procs, nd)
		}
		if *f > 0 && *adv == "split" {
			a = adversary.DynEquivEvent{All: all, Every: 2}
		}
		r := sim.NewRunner(sim.Config{MaxRounds: maxRounds}, procs, faulty, a)
		m := r.Run(nil)
		report(m)
		if v := dynamic.PrefixViolations(nodes); v > 0 {
			fatalf("chain-prefix violated across %d node pairs", v)
		}
		for _, nd := range nodes {
			fmt.Printf("node %12d chain=%d final-round=%d members=%d lag=%d\n",
				nd.ID(), len(nd.Chain()), nd.FinalRound(), len(nd.Members()), nd.Round()-nd.FinalRound())
		}

	default:
		fatalf("unknown protocol %q", *protocol)
	}
}

// checkSize rejects sizes no run can be built from: at least one node,
// and at least one of them correct. n ≤ 3f is allowed — running outside
// the resiliency bound is how violations are shown — and only warned
// about.
func checkSize(n, f int) error {
	switch {
	case n < 1:
		return fmt.Errorf("-n %d: need at least one node", n)
	case f < 0:
		return fmt.Errorf("-f %d: the fault count cannot be negative", f)
	case f >= n:
		return fmt.Errorf("-f %d with -n %d: need at least one correct node (f < n)", f, n)
	}
	return nil
}

// The names the direct path understands; -churn runs take the engine's.
var (
	simProtocols   = []string{"rbroadcast", "rotor", "consensus", "approx", "parallel", "dynamic"}
	simAdversaries = []string{"silent", "split", "stubborn", "hidden", "replay"}
)

// checkNames rejects an unknown -protocol or -adversary before any run
// is built, whatever -f is (with f = 0 the adversary is never
// constructed, so a typo would otherwise pass silently): the direct
// path's own names, or with -churn the scenario engine's.
func checkNames(protocol, adv string, churn bool) error {
	protos, advs := simProtocols, simAdversaries
	if churn {
		protos, advs = append(engine.Protocols(), engine.ProtoRing), engine.Adversaries()
	}
	if !slices.Contains(protos, protocol) {
		return fmt.Errorf("-protocol %q: want one of %s", protocol, strings.Join(protos, " | "))
	}
	if !slices.Contains(advs, adv) {
		return fmt.Errorf("-adversary %q: want one of %s", adv, strings.Join(advs, " | "))
	}
	return nil
}

// runScenario executes one churned run through the scenario engine, so
// the churn plan resolves from the seed exactly as a grid cell's would.
// The adversary name must be an engine one (none, silent, split, chaos,
// replay); f = 0 forces "none".
func runScenario(protocol, adv, churn string, n, f, rounds, pairs int, seed uint64) error {
	spec, err := engine.ParseChurn(churn)
	if err != nil {
		return err
	}
	if f == 0 {
		adv = engine.AdvNone
	}
	s := engine.Scenario{
		Protocol:  protocol,
		Adversary: adv,
		N:         n,
		F:         f,
		Seed:      seed,
		MaxRounds: rounds,
		Pairs:     pairs,
	}
	if !spec.IsZero() {
		s.Churn = &spec
	}
	if err := s.Validate(); err != nil {
		return err
	}
	res := s.Run()
	if res.Err != "" {
		return fmt.Errorf("%s: %s", res.Scenario.Name, res.Err)
	}
	fmt.Printf("scenario %s\n", res.Scenario.Name)
	fmt.Printf("digest   %s\n", res.Scenario.Digest())
	fmt.Printf("rounds=%d messages=%d duplicates-dropped=%d\n",
		res.Rounds, res.MessagesDelivered, res.MessagesDropped)
	fmt.Printf("joins=%d leaves=%d members peak=%d min=%d\n",
		res.Joins, res.Leaves, res.PeakMembers, res.MinMembers)
	if res.DecidedNA {
		fmt.Printf("decided=n/a finality-lag=%d\n", res.FinalityLag)
	} else {
		fmt.Printf("decided=%d/%d\n", res.DecidedNodes, res.DecidedOf)
	}
	fmt.Printf("outcome  %s\n", res.Output)
	return nil
}

func report(m sim.Metrics) {
	fmt.Printf("rounds=%d messages=%d duplicates-dropped=%d\n\n", m.Rounds, m.MessagesDelivered, m.MessagesDropped)
}
