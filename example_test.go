package idonly_test

import (
	"fmt"
	"math"

	"idonly"
)

// Binary consensus among 10 nodes with 3 Byzantine split-brain
// attackers, where no node knows n or f. The adversary tells each half
// of the system a different story at every protocol step — inputs,
// prefers, strongprefers, and the coordinator opinion when one of its
// nodes is selected — and the correct nodes still agree.
func Example_quickstart() {
	const n, f = 10, 3
	// Sparse, non-consecutive identifiers: the id-only model's regime.
	all := idonly.SparseIDs(idonly.NewRand(2024), n)
	correct, faulty := all[:n-f], all[n-f:]

	// Correct nodes start with a split opinion: 0 or 1.
	var nodes []*idonly.ConsensusNode
	for i, id := range correct {
		nodes = append(nodes, idonly.NewConsensus(id, float64(i%2)))
	}
	runner := idonly.NewRunner(idonly.Config{StopWhenAllDecided: true}, nodes, faulty,
		idonly.SplitBrainAdversary(0, 1, all))
	metrics := runner.Run(nil)

	fmt.Printf("rounds: %d, messages delivered: %d\n", metrics.Rounds, metrics.MessagesDelivered)
	agree := true
	for _, nd := range nodes {
		fmt.Printf("node %12d decided %v in round %d (after %d phases)\n",
			nd.ID(), nd.Value(), nd.DecidedRound(), nd.Phases())
		agree = agree && nd.Decided() && nd.Value() == nodes[0].Value()
	}
	fmt.Println("agreement:", agree)
	// Output:
	// rounds: 12, messages delivered: 2280
	// node 268867774355 decided 0 in round 7 (after 1 phases)
	// node 435477169019 decided 0 in round 7 (after 1 phases)
	// node 469917588204 decided 0 in round 7 (after 1 phases)
	// node 570630210354 decided 0 in round 7 (after 1 phases)
	// node 803512382163 decided 0 in round 7 (after 1 phases)
	// node 821829543296 decided 0 in round 12 (after 2 phases)
	// node 871398126232 decided 0 in round 12 (after 2 phases)
	// agreement: true
}

// A permissionless ordered event log on the dynamic total-ordering
// protocol (Algorithm 6), the paper's blockchain-style motivation.
// Participants join and leave while the system runs, nobody knows n or
// f, a Byzantine member equivocates events, and every correct
// participant still sees the same totally ordered ledger prefix.
func Example_ledger() {
	const founders, rounds = 6, 70 // 5 correct founders + 1 Byzantine
	all := idonly.SparseIDs(idonly.NewRand(99), founders)
	correct, faulty := all[:founders-1], all[founders-1:]

	// Each correct founder submits a transaction every few rounds; the
	// last one retires at round 20.
	var nodes []*idonly.DynamicNode
	for i, id := range correct {
		witness := make(map[int][]string)
		for r := 2; r <= rounds; r += len(correct) {
			witness[r+i] = []string{fmt.Sprintf("tx{from:%d,seq:%d}", i, r+i)}
		}
		leaveAt := 0
		if i == len(correct)-1 {
			leaveAt = 20
		}
		nodes = append(nodes, idonly.NewDynamicOrder(idonly.DynamicConfig{ID: id, Founders: all, Witness: witness, LeaveAt: leaveAt}))
	}
	// The Byzantine founder reports conflicting transactions to the two
	// halves of the system every third round.
	runner := idonly.NewRunner(idonly.Config{MaxRounds: rounds}, nodes, faulty,
		idonly.EquivocatingEventAdversary(all, 3))

	// A new participant joins the open system at round 25 and submits
	// its own transactions from round 30.
	joinWitness := make(map[int][]string)
	for r := 30; r <= rounds; r += 4 {
		joinWitness[r] = []string{fmt.Sprintf("tx{from:joiner,seq:%d}", r)}
	}
	joiner := idonly.NewDynamicOrder(idonly.DynamicConfig{
		ID: idonly.SparseIDs(idonly.NewRand(100), 1)[0], Witness: joinWitness})
	runner.ScheduleJoin(25, joiner)
	runner.Run(nil)

	chain := nodes[0].Chain()
	fmt.Printf("ledger after %d rounds: %d entries, final up to round %d; the first five:\n",
		rounds, len(chain), nodes[0].FinalRound())
	for _, e := range chain[:5] {
		fmt.Printf("  [round %2d] witness %12d: %s\n", e.Session, e.Node, e.M)
	}
	fmt.Println("consistency:")
	for _, nd := range nodes[:len(nodes)-1] {
		fmt.Printf("  node %12d: %d entries, final round %d\n", nd.ID(), len(nd.Chain()), nd.FinalRound())
	}
	fmt.Printf("  joiner %10d: %d entries, final round %d\n", joiner.ID(), len(joiner.Chain()), joiner.FinalRound())
	leaver := nodes[len(nodes)-1]
	fmt.Printf("  leaver %10d: left=%v (its pre-departure txs stay in the ledger)\n", leaver.ID(), leaver.Left())
	// Output:
	// ledger after 70 rounds: 66 entries, final up to round 52; the first five:
	//   [round  3] witness 105354455461: tx{from:0,seq:2}
	//   [round  4] witness 227369145084: tx{from:1,seq:3}
	//   [round  4] witness 1053291439732: evil-a-3
	//   [round  5] witness 233207983076: tx{from:2,seq:4}
	//   [round  6] witness 673125444824: tx{from:3,seq:5}
	// consistency:
	//   node 105354455461: 66 entries, final round 52
	//   node 227369145084: 66 entries, final round 52
	//   node 233207983076: 66 entries, final round 52
	//   node 673125444824: 66 entries, final round 52
	//   joiner 639702463813: 40 entries, final round 55
	//   leaver 702340462837: left=true (its pre-departure txs stay in the ledger)
}

// A wireless sensor network fuses temperature readings by iterated
// approximate agreement (Algorithm 4) while faulty sensors feed extreme
// values to different halves of the network. Each iteration every
// sensor broadcasts its estimate, trims the ⌊nv/3⌋ most extreme values
// it received and moves to the midpoint of the rest, so the spread of
// correct estimates at least halves per iteration (Theorem 4).
func Example_sensornet() {
	const n, f, iterations = 13, 4, 12
	rng := idonly.NewRand(7)
	all := idonly.SparseIDs(rng, n)
	correct, faulty := all[:n-f], all[n-f:]

	// True temperature ~21.5°C; each correct sensor reads with noise.
	var sensors []*idonly.IteratedApproxNode
	for i, id := range correct {
		reading := 21.5 + 3.0*(rng.Float64()-0.5) + float64(i%3)
		sensors = append(sensors, idonly.NewIteratedApprox(id, reading, iterations))
	}
	// Faulty sensors report -40°C to half the network and +85°C to the
	// other half.
	runner := idonly.NewRunner(idonly.Config{StopWhenAllDecided: true}, sensors, faulty,
		idonly.OutlierAdversary(-40, 85, all))
	runner.Run(nil)

	fmt.Println("spread of correct estimates per iteration:")
	for k := 0; k < iterations; k++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range sensors {
			lo, hi = math.Min(lo, s.History[k]), math.Max(hi, s.History[k])
		}
		fmt.Printf("  iter %2d: spread %.6f°C  [%.4f, %.4f]\n", k+1, hi-lo, lo, hi)
	}
	fmt.Printf("fused estimate: %.4f°C\n", sensors[0].Value())
	// Output:
	// spread of correct estimates per iteration:
	//   iter  1: spread 0.939139°C  [22.3090, 23.2481]
	//   iter  2: spread 0.469569°C  [22.3090, 22.7785]
	//   iter  3: spread 0.234785°C  [22.3090, 22.5437]
	//   iter  4: spread 0.117392°C  [22.3090, 22.4264]
	//   iter  5: spread 0.058696°C  [22.3090, 22.3677]
	//   iter  6: spread 0.029348°C  [22.3090, 22.3383]
	//   iter  7: spread 0.014674°C  [22.3090, 22.3236]
	//   iter  8: spread 0.007337°C  [22.3090, 22.3163]
	//   iter  9: spread 0.003669°C  [22.3090, 22.3126]
	//   iter 10: spread 0.001834°C  [22.3090, 22.3108]
	//   iter 11: spread 0.000917°C  [22.3090, 22.3099]
	//   iter 12: spread 0.000459°C  [22.3090, 22.3094]
	// fused estimate: 22.3090°C
}

// The Section IX impossibility results, run as executions. Lemma 14: a
// gossip protocol that decides when its view of the participant set
// closes, run under a partition whose cross delays are unbounded —
// both halves terminate with opposite decisions. Lemma 15: a timeout
// protocol that guesses the delay bound agrees exactly while the true,
// unknown bound stays within its guess.
func Example_partition() {
	all := idonly.SparseIDs(idonly.NewRand(123), 8)
	groupA := make(map[idonly.NodeID]bool)
	for _, id := range all[:4] {
		groupA[id] = true
	}
	input := func(id idonly.NodeID) int {
		if groupA[id] {
			return 1
		}
		return 0
	}

	fmt.Println("Lemma 14, asynchronous partition:")
	var procs []idonly.AsyncProcess
	for _, id := range all {
		procs = append(procs, idonly.NewClosureGossip(id, input(id)))
	}
	// Cross-partition messages are delayed forever (delay < 0 = dropped).
	idonly.NewAsyncScheduler(procs, idonly.PartitionDelay(groupA, 0.5, -1)).Run(1e6)
	for _, p := range procs {
		fmt.Printf("  node %12d (input %d) decided %v\n", p.ID(), input(p.ID()), p.Output())
	}

	fmt.Println("Lemma 15, semi-synchronous with unknown Δ, each node guessing Δ ≤ 2:")
	for _, trueDelta := range []float64{1, 100} {
		var procs []idonly.AsyncProcess
		for _, id := range all {
			procs = append(procs, idonly.NewTimeoutQuorum(id, input(id), 2))
		}
		idonly.NewAsyncScheduler(procs, idonly.PartitionDelay(groupA, 0.25, trueDelta)).Run(1e6)
		agree := true
		for _, p := range procs {
			agree = agree && p.Output() == procs[0].Output()
		}
		fmt.Printf("  true Δ = %-3v → agreement: %v\n", trueDelta, agree)
	}
	// Output:
	// Lemma 14, asynchronous partition:
	//   node  53965521408 (input 1) decided 1
	//   node  76561894377 (input 1) decided 1
	//   node 562576798225 (input 1) decided 1
	//   node 576827023282 (input 1) decided 1
	//   node 912191799596 (input 0) decided 0
	//   node 912547309875 (input 0) decided 0
	//   node 972983684383 (input 0) decided 0
	//   node 1004761233277 (input 0) decided 0
	// Lemma 15, semi-synchronous with unknown Δ, each node guessing Δ ≤ 2:
	//   true Δ = 1   → agreement: true
	//   true Δ = 100 → agreement: false
}

// Algorithm 6 total ordering while participants come and go, driven
// two ways: declaratively, as a churned Scenario whose join/leave
// rounds resolve from the seed (so the run is a pure value), and by
// hand, as a Runner with an explicit mid-run join whose chain converges
// onto the founders' (the chain-prefix guarantee of Theorem 6).
func Example_churn() {
	spec := idonly.Scenario{
		Protocol:  idonly.ProtoDynamic,
		Adversary: idonly.AdvSplit, // event-equivocating Byzantine nodes
		N:         10, F: 2,
		Seed: 7,
		Churn: &idonly.ChurnSpec{
			Joins:        2, // two correct nodes join via present/ack
			Leaves:       1, // one founder announces "absent" and drains its sessions
			FaultyJoins:  1, // one faulty node enters mid-run
			FaultyLeaves: 1, // one faulty node is removed mid-run
		},
	}
	res := idonly.RunAll([]idonly.Scenario{spec}, idonly.EngineOptions{Workers: 2}).Results[0]
	fmt.Println("declarative:", res.Scenario.Name)
	fmt.Printf("  %d rounds, %d messages; membership %d..%d after %d joins and %d leaves\n",
		res.Rounds, res.MessagesDelivered, res.MinMembers, res.PeakMembers, res.Joins, res.Leaves)
	// An ordering service never terminates: it keeps extending the
	// chain, so the engine reports its finality lag, not a decision.
	fmt.Printf("  %s, worst finality lag %d rounds\n", res.Output, res.FinalityLag)

	all := idonly.SparseIDs(idonly.NewRand(42), 4)
	var founders []*idonly.DynamicNode
	for i, id := range all {
		witness := map[int][]string{}
		for r := 1; r <= 50; r++ {
			if r%len(all) == i {
				witness[r] = []string{fmt.Sprintf("ev-%d-%d", i, r)}
			}
		}
		founders = append(founders, idonly.NewDynamicOrder(idonly.DynamicConfig{ID: id, Founders: all, Witness: witness}))
	}
	runner := idonly.NewRunner(idonly.Config{MaxRounds: 50}, founders, nil, nil)
	// No Founders: the joiner must discover the system via present/ack.
	joiner := idonly.NewDynamicOrder(idonly.DynamicConfig{ID: idonly.SparseIDs(idonly.NewRand(99), 1)[0]})
	runner.ScheduleJoin(10, joiner)
	runner.Run(nil)

	fc, jc := founders[0].Chain(), joiner.Chain()
	fmt.Println("by hand, a join at round 10:")
	fmt.Printf("  founder chain: %d events, final through round %d\n", len(fc), founders[0].FinalRound())
	fmt.Printf("  joiner chain:  %d events, a suffix of the founder's: %v\n", len(jc), isSuffixStart(fc, jc))
	// Output:
	// declarative: dynamic/split/n=10/f=2/seed=7/churn=j2,l1,fj1,fl1
	//   50 rounds, 102163 messages; membership 9..12 after 3 joins and 2 leaves
	//   chain=29 final=20 members=11 gaps=0, worst finality lag 30 rounds
	// by hand, a join at round 10:
	//   founder chain: 34 events, final through round 35
	//   joiner chain:  24 events, a suffix of the founder's: true
}

// isSuffixStart reports whether the joiner's chain is non-empty and
// runs, event for event, along the founder's chain from the point where
// its first event appears there.
func isSuffixStart(founder, joiner []idonly.OrderedEvent) bool {
	for i, e := range founder {
		if len(joiner) > 0 && e == joiner[0] {
			for k := 0; i+k < len(founder) && k < len(joiner); k++ {
				if founder[i+k] != joiner[k] {
					return false
				}
			}
			return true
		}
	}
	return false
}
