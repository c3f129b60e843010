package engine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"idonly/internal/adversary"
	"idonly/internal/core/approx"
	"idonly/internal/core/consensus"
	"idonly/internal/core/dynamic"
	"idonly/internal/core/parallel"
	"idonly/internal/core/rbroadcast"
	"idonly/internal/core/ring"
	"idonly/internal/core/rotor"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// Protocol names accepted by Scenario.Protocol.
const (
	ProtoRBroadcast = "rbroadcast" // Algorithm 1, reliable broadcast
	ProtoRotor      = "rotor"      // Algorithm 2, rotor-coordinator
	ProtoConsensus  = "consensus"  // Algorithm 3, id-only consensus
	ProtoApprox     = "approx"     // Algorithm 4, iterated approximate agreement
	ProtoParallel   = "parallel"   // Algorithm 5, parallel consensus
	ProtoDynamic    = "dynamic"    // Algorithm 6, total ordering in a dynamic network

	// ProtoRing is the scale-frontier workload (internal/core/ring):
	// min-id gossip over a sparse overlay, n·⌈log₂ n⌉ messages per
	// round instead of Θ(n²), so n = 100k rounds stay tractable. It is
	// a synthetic probe, not one of the paper's algorithms, so it is
	// deliberately NOT in Protocols(): the preset grids, the
	// every-cell coverage test and the pinned grid sizes all iterate
	// Protocols() and must not change. Ring scenarios come from the
	// "scale" preset or explicit specs.
	ProtoRing = "ring"
)

// Adversary names accepted by Scenario.Adversary. "split" resolves to
// the strongest value-targeting strategy for the scenario's protocol
// (ConsSplit, ParaSplit, ApproxOutlier, RotorHidden, RBForgeSource).
const (
	AdvNone   = "none"   // f = 0, no faulty nodes at all
	AdvSilent = "silent" // faulty nodes never send
	AdvSplit  = "split"  // protocol-specific value-targeting attack
	AdvChaos  = "chaos"  // seeded random fuzzing payloads
	AdvReplay = "replay" // echo the previous round's inbox back
)

// Protocols returns every protocol name in canonical order.
func Protocols() []string {
	return []string{ProtoRBroadcast, ProtoRotor, ProtoConsensus, ProtoApprox, ProtoParallel, ProtoDynamic}
}

// Adversaries returns every adversary name in canonical order.
func Adversaries() []string {
	return []string{AdvNone, AdvSilent, AdvSplit, AdvChaos, AdvReplay}
}

// Churn declares mid-run membership change — the paper's defining
// setting, in which participants come and go while neither n nor f is
// known. The spec is declarative: it names counts and a round window,
// and the concrete join/leave rounds are resolved deterministically
// from Scenario.Seed (churnPlan), so a churned scenario is still a pure
// value and runs bit-identically at any worker count.
//
// Joins and Leaves drive correct participants and require a protocol
// with a join/leave discipline (ProtoDynamic: joiners run the
// present/ack protocol, leavers broadcast "absent" and drain their
// sessions — sim.Leaver). FaultyJoins holds back that many of the F
// faulty nodes to enter mid-run instead of at round 1; FaultyLeaves
// silently removes faulty nodes mid-run (the adversary decides when its
// nodes leave, per the dynamic model). Both faulty axes apply to every
// protocol.
type Churn struct {
	Joins        int `json:"joins,omitempty"`         // correct participants joining mid-run
	Leaves       int `json:"leaves,omitempty"`        // correct founders leaving mid-run
	FaultyJoins  int `json:"faulty_joins,omitempty"`  // faulty nodes entering mid-run instead of at start
	FaultyLeaves int `json:"faulty_leaves,omitempty"` // faulty nodes removed mid-run
	Window       int `json:"window,omitempty"`        // churn rounds drawn from [3, 3+Window); 0 = MaxRounds/2
}

// firstChurnRound is the earliest round a churn event fires: a run
// shorter than this cannot apply any, so Validate rejects a churned
// scenario whose MaxRounds is below it.
const firstChurnRound = 3

// IsZero reports whether the spec declares no churn at all.
func (c Churn) IsZero() bool {
	return c.Joins == 0 && c.Leaves == 0 && c.FaultyJoins == 0 && c.FaultyLeaves == 0
}

// Label renders the spec as a compact cell label ("j1,l1,fj1,fl1,w5"),
// every non-zero field a term, so ParseChurn reads it back as c; empty
// for a spec without churn, whose window means nothing. Group keys and
// scenario names use it.
func (c Churn) Label() string { return string(c.appendLabel(nil)) }

// appendLabel appends Label's text to dst.
func (c Churn) appendLabel(dst []byte) []byte {
	if c.IsZero() {
		return dst
	}
	start := len(dst)
	for _, t := range [...]struct {
		term string
		v    int
	}{{"j", c.Joins}, {"l", c.Leaves}, {"fj", c.FaultyJoins}, {"fl", c.FaultyLeaves}, {"w", c.Window}} {
		if t.v > 0 {
			if len(dst) > start {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(append(dst, t.term...), int64(t.v), 10)
		}
	}
	return dst
}

// clampFor sanitizes the spec for one grid cell: correct-node churn is
// only meaningful for the dynamic protocol, faulty churn is bounded by
// the cell's fault budget, and leaves may not push the system through
// the n > 3f resiliency floor.
func (c Churn) clampFor(proto string, n, f int) Churn {
	if proto != ProtoDynamic {
		c.Joins, c.Leaves = 0, 0
	}
	if c.FaultyJoins > f {
		c.FaultyJoins = f
	}
	if c.FaultyLeaves > f-c.FaultyJoins {
		c.FaultyLeaves = f - c.FaultyJoins
	}
	if maxLeaves := n - 3*f - 1; c.Leaves > maxLeaves {
		c.Leaves = maxLeaves
	}
	if c.Leaves > n-f-1 {
		c.Leaves = n - f - 1
	}
	if c.Leaves < 0 {
		c.Leaves = 0
	}
	return c
}

// churnPlan is a Churn spec resolved against a concrete scenario: the
// exact rounds at which each membership event fires, derived from the
// scenario seed alone.
type churnPlan struct {
	joinRounds   []int // joiner i runs the join protocol starting at joinRounds[i]
	leaveRounds  []int // the j-th highest-indexed correct founder announces departure at leaveRounds[j]
	faultyJoins  []int // rounds at which the held-back faulty nodes enter
	faultyLeaves []int // rounds after which faulty node i is removed
}

// churnPlan resolves the scenario's churn spec. The generator is salted
// so the plan shares no stream with id generation or the adversary: a
// zero spec leaves every other draw — and therefore every churn-free
// result — exactly as it was.
func (s Scenario) churnPlan() churnPlan {
	if s.Churn == nil || s.Churn.IsZero() {
		return churnPlan{}
	}
	c := *s.Churn
	w := c.Window
	if w <= 0 {
		w = s.MaxRounds / 2
	}
	// Keep every churn round inside the run: an event scheduled past
	// MaxRounds would silently never fire and the result would
	// undercount the spec. Validate rejects a run too short to hold
	// even the first churn round.
	if w > s.MaxRounds-firstChurnRound {
		w = s.MaxRounds - firstChurnRound
	}
	if w < 1 {
		w = 1
	}
	rng := ids.NewRand(s.Seed ^ 0x636875726e) // "churn"
	draw := func(k int) []int {
		if k == 0 {
			return nil
		}
		out := make([]int, k)
		for i := range out {
			out[i] = firstChurnRound + rng.Intn(w)
		}
		sort.Ints(out)
		return out
	}
	return churnPlan{
		joinRounds:   draw(c.Joins),
		leaveRounds:  draw(c.Leaves),
		faultyJoins:  draw(c.FaultyJoins),
		faultyLeaves: draw(c.FaultyLeaves),
	}
}

// Scenario is one declarative simulation run: a protocol, an adversary
// strategy, a system size, and a seed. Running it builds a fresh
// sim.Runner over freshly constructed nodes whose randomness all
// derives from Seed, so a Scenario is a pure value: Run is
// deterministic and safe to execute concurrently with other scenarios.
type Scenario struct {
	Name      string `json:"name"`
	Protocol  string `json:"protocol"`
	Adversary string `json:"adversary"`
	N         int    `json:"n"`               // total nodes (correct + faulty)
	F         int    `json:"f"`               // faulty nodes; 0 forced when Adversary == "none"
	Seed      uint64 `json:"seed"`            // all scenario randomness derives from this
	MaxRounds int    `json:"max_rounds"`      // 0 means a protocol-specific default
	Pairs     int    `json:"pairs,omitempty"` // parallel consensus width; 0 means 4

	// Churn declares mid-run membership change; nil means a static
	// system. The spec is never mutated, so sharing the pointer across
	// scenarios is safe and the scenario stays a pure value.
	Churn *Churn `json:"churn,omitempty"`

	// NoFastPath runs the scenario on the boxed instantiation of the
	// simulator core even when it is eligible for the protocol's wire
	// union (fastpath.go) — the comparison target for the typed one.
	// It selects an execution strategy, never a result — the two are
	// proven bit-identical — so it is excluded from the canonical report
	// and the scenario digest.
	NoFastPath bool `json:"-"`
}

// withDefaults resolves zero fields to their protocol defaults and an
// empty Name to the default name.
func (s Scenario) withDefaults() Scenario {
	if s = s.resolved(); s.Name == "" {
		s.Name = s.title()
	}
	return s
}

// resolved is withDefaults without the name.
func (s Scenario) resolved() Scenario {
	if s.Adversary == AdvNone {
		s.F = 0
	}
	if s.Pairs <= 0 {
		s.Pairs = 4
	}
	if s.Churn != nil && s.Churn.IsZero() {
		s.Churn = nil
	}
	if s.MaxRounds <= 0 {
		switch s.Protocol {
		case ProtoRBroadcast:
			s.MaxRounds = 12
		case ProtoRotor:
			s.MaxRounds = 10 * s.N
		case ProtoApprox:
			s.MaxRounds = 14
		case ProtoParallel:
			s.MaxRounds = 80 * (s.F + 2)
		case ProtoDynamic:
			// Long enough for the first sessions to clear the Theorem 6
			// finality bound (5|S|/2 + 2) and grow a chain.
			s.MaxRounds = 5*s.N/2 + 25
		case ProtoRing:
			// The flood horizon plus slack for the decided-stop round.
			s.MaxRounds = ring.Horizon(s.N) + 2
		default:
			s.MaxRounds = 60 * (s.F + 2)
		}
	}
	return s
}

// appendName appends the default name of a resolved scenario,
// "protocol/adversary/n=N/f=F/seed=S", plus "/churn=" and the churn
// label when it churns.
func (s *Scenario) appendName(dst []byte) []byte {
	dst = append(append(append(dst, s.Protocol...), '/'), s.Adversary...)
	dst = strconv.AppendInt(append(dst, "/n="...), int64(s.N), 10)
	dst = strconv.AppendInt(append(dst, "/f="...), int64(s.F), 10)
	dst = strconv.AppendUint(append(dst, "/seed="...), s.Seed, 10)
	if s.Churn != nil {
		dst = s.Churn.appendLabel(append(dst, "/churn="...))
	}
	return dst
}

// title is a resolved scenario's Name, or else its default name.
func (s Scenario) title() string {
	if s.Name != "" {
		return s.Name
	}
	return string(s.appendName(nil))
}

// Validate reports whether the scenario is well formed. It renders no
// name unless it has an error to report.
func (s Scenario) Validate() error {
	s = s.resolved()
	switch s.Protocol {
	case ProtoRBroadcast, ProtoRotor, ProtoConsensus, ProtoApprox, ProtoParallel, ProtoDynamic, ProtoRing:
	default:
		return fmt.Errorf("engine: unknown protocol %q", s.Protocol)
	}
	switch s.Adversary {
	case AdvNone, AdvSilent, AdvSplit, AdvChaos, AdvReplay:
	default:
		return fmt.Errorf("engine: unknown adversary %q", s.Adversary)
	}
	if s.Protocol == ProtoRing && s.Adversary == AdvSplit {
		return fmt.Errorf("engine: scenario %q: ring has no value-targeting split attack", s.title())
	}
	if s.N < 1 {
		return fmt.Errorf("engine: scenario %q has n = %d", s.title(), s.N)
	}
	if s.F < 0 || s.N <= 3*s.F {
		return fmt.Errorf("engine: scenario %q violates n > 3f (n=%d, f=%d)", s.title(), s.N, s.F)
	}
	if c := s.Churn; c != nil {
		if c.Joins < 0 || c.Leaves < 0 || c.FaultyJoins < 0 || c.FaultyLeaves < 0 || c.Window < 0 {
			return fmt.Errorf("engine: scenario %q has a negative churn field", s.title())
		}
		if (c.Joins > 0 || c.Leaves > 0) && s.Protocol != ProtoDynamic {
			return fmt.Errorf("engine: scenario %q declares correct-node churn for %q (only %q has a join/leave discipline)",
				s.title(), s.Protocol, ProtoDynamic)
		}
		if c.Leaves >= s.N-s.F {
			return fmt.Errorf("engine: scenario %q would lose every correct founder (leaves=%d, correct=%d)",
				s.title(), c.Leaves, s.N-s.F)
		}
		if s.N-c.Leaves <= 3*s.F {
			return fmt.Errorf("engine: scenario %q churns through the resiliency floor (n-leaves=%d, f=%d)",
				s.title(), s.N-c.Leaves, s.F)
		}
		if c.FaultyJoins+c.FaultyLeaves > s.F {
			return fmt.Errorf("engine: scenario %q over-allocates faulty churn (fj=%d + fl=%d > f=%d)",
				s.title(), c.FaultyJoins, c.FaultyLeaves, s.F)
		}
		if !c.IsZero() && s.MaxRounds < firstChurnRound {
			return fmt.Errorf("engine: scenario %q churns in a run of %d rounds (churn starts at round %d)",
				s.title(), s.MaxRounds, firstChurnRound)
		}
	}
	return nil
}

// Run executes the scenario and returns its result. A protocol
// invariant violation (the node implementations panic on agreement or
// validity breaks — the runs double as checkers) is captured into
// Result.Err rather than unwinding the worker pool.
func (s Scenario) Run() Result { return s.run(nil) }

// phases is the per-run phase split an instrumented run reports: the
// build phase covers validation through churn-plan compilation, the
// rounds phase is the simulated run itself. A nil *phases (the
// uninstrumented path) costs one branch per phase boundary — that is
// the whole disabled-observability overhead.
type phases struct {
	buildNS  int64
	roundsNS int64
}

func (s Scenario) run(ph *phases) (res Result) {
	s = s.withDefaults()
	res.Scenario = s
	start := time.Now() //lint:wallclock Result.WallNS is measurement, zeroed in canonical reports
	defer func() {
		res.WallNS = time.Since(start).Nanoseconds() //lint:wallclock Result.WallNS is measurement, zeroed in canonical reports
		if p := recover(); p != nil {
			res.Err = fmt.Sprint(p)
		}
	}()
	if err := s.Validate(); err != nil {
		res.Err = err.Error()
		return res
	}

	plan := s.churnPlan()
	rng := ids.NewRand(s.Seed)
	all := ids.Sparse(rng, s.N+len(plan.joinRounds))
	founders := all[:s.N] // present at round 1 (minus the held-back faulty)
	joiners := all[s.N:]
	correct := founders[:s.N-s.F]
	faulty := founders[s.N-s.F:]
	nLate := len(plan.faultyJoins)
	early := faulty[:len(faulty)-nLate]
	late := faulty[len(faulty)-nLate:]

	pr := buildProtocol(s, correct, founders, joiners, plan)
	var adv sim.Adversary
	if len(faulty) > 0 {
		adv = buildAdversary(s, founders, correct, rng)
	}
	// Every run stops once each correct node has decided. rbroadcast and
	// dynamic nodes never decide, and Validate keeps a correct founder,
	// so theirs run to MaxRounds.
	cfg := sim.Config{MaxRounds: s.MaxRounds, StopWhenAllDecided: true}

	// One core, two instantiations (sim/generic.go): the builder puts
	// the protocol on its wire union when it has one and the scenario
	// is eligible (fastPath), on boxed payloads otherwise, and schedules
	// the correct joiners either way. Bit-identical by the golden-trace
	// tests; the sweep matrix's no-fast-path column
	// (TestSweepStrategies) pins the canonical report bytes.
	run := pr.build(cfg, early, adv, s.fastPath())

	// Schedule the faulty churn. Correct leaves were already compiled
	// into the leavers' own configuration (the dynamic protocol's
	// graceful-departure discipline, sim.Leaver).
	for i, round := range plan.faultyJoins {
		run.ScheduleFaultyJoin(round, late[i])
	}
	for i, round := range plan.faultyLeaves {
		run.ScheduleFaultyLeave(round, early[i])
	}
	var roundsStart time.Time
	if ph != nil {
		roundsStart = time.Now() //lint:wallclock span phase timing; observability only
		ph.buildNS = roundsStart.Sub(start).Nanoseconds()
	}
	m := run.Run(nil)
	if ph != nil {
		ph.roundsNS = time.Since(roundsStart).Nanoseconds() //lint:wallclock span phase timing; observability only
	}

	res.Rounds = m.Rounds
	res.MessagesDelivered = m.MessagesDelivered
	res.MessagesDropped = m.MessagesDropped
	res.InboxGrows = m.InboxGrows
	res.Joins = m.Joins
	res.Leaves = m.Leaves
	res.PeakMembers = m.PeakNodes
	res.MinMembers = m.MinNodes
	res.DecidedNodes, res.DecidedOf, res.DecidedNA = pr.decided()
	res.AllDecided = !res.DecidedNA && res.DecidedNodes == res.DecidedOf
	for _, r := range m.DecidedRound { //lint:ordered max reduction, order-free
		if r > res.DecidedRoundMax {
			res.DecidedRoundMax = r
		}
	}
	res.Output = pr.digest()
	if pr.finish != nil {
		pr.finish(&res)
	}
	return res
}

// protocolRun is a scenario's protocol, constructed: the builder that
// puts its nodes on a runner, the outcome digest, the terminal
// predicate backing the decided column, and an optional finisher that
// fills protocol-specific Result fields (finality lag).
type protocolRun struct {
	build   builder
	digest  func() string
	decided func() (done, total int, na bool)
	finish  func(res *Result)
}

// builder puts a protocol's constructed nodes on a runner over the
// given faulty ids and adversary, correct joiners scheduled: on the
// protocol's wire union when typed is set and it has one (unionRun),
// on boxed payloads otherwise.
type builder func(cfg sim.Config, faulty []ids.ID, adv sim.Adversary, typed bool) runner

// runner is what Scenario.run needs of either instantiation of the
// simulator core: the faulty-membership schedule and Run.
type runner interface {
	ScheduleFaultyJoin(round int, id ids.ID)
	ScheduleFaultyLeave(round int, id ids.ID)
	Run(stop func(round int) bool) sim.Metrics
}

// unionRun builds runs of a protocol with a wire union: typed over the
// union, or boxed. Each of joiners joins at its entry of joinRounds.
func unionRun[P interface {
	sim.ProcessT[M]
	sim.Process
}, M sim.WireMsg[M]](codec sim.Codec[M], nodes, joiners []P, joinRounds []int) builder {
	return func(cfg sim.Config, faulty []ids.ID, adv sim.Adversary, typed bool) runner {
		var run runner
		var join func(round int, p P)
		if typed {
			r := sim.NewTypedRunner(cfg, nodes, faulty, adv, codec)
			run, join = r, r.ScheduleJoin
		} else {
			r := sim.NewRunner(cfg, nodes, faulty, adv)
			run, join = r, func(round int, p P) { r.ScheduleJoin(round, p) }
		}
		for i, p := range joiners {
			join(joinRounds[i], p)
		}
		return run
	}
}

// boxedRun builds runs of a protocol without a wire union: boxed
// always.
func boxedRun[P sim.Process](nodes []P) builder {
	return func(cfg sim.Config, faulty []ids.ID, adv sim.Adversary, _ bool) runner {
		return sim.NewRunner(cfg, nodes, faulty, adv)
	}
}

// allDecided is the default terminal predicate: every correct node
// decided. A node that legitimately left the system does not count as
// undecided.
func allDecided[P sim.Process](nodes []P) func() (done, total int, na bool) {
	return func() (done, total int, na bool) {
		for _, p := range nodes {
			if l, ok := any(p).(sim.Leaver); ok && l.Left() {
				continue
			}
			total++
			if p.Decided() {
				done++
			}
		}
		return done, total, false
	}
}

// buildProtocol constructs the correct nodes for the scenario, joiners
// included, and the run's builder and hooks. The digest is a
// deterministic one-line summary of the protocol outcome, evaluated
// after the run; protocols whose agreement property is checkable panic
// inside it (the runs double as checkers). joiners are the ids of the
// correct nodes the churn plan adds, one per plan.joinRounds entry;
// only the dynamic protocol has a join discipline, so only it reads
// them.
func buildProtocol(s Scenario, correct, founders, joiners []ids.ID, plan churnPlan) protocolRun {
	switch s.Protocol {
	case ProtoRBroadcast:
		var nodes []*rbroadcast.Node
		for i, id := range correct {
			nodes = append(nodes, rbroadcast.New(id, i == 0, "m"))
		}
		src := correct[0]
		return protocolRun{build: unionRun(rbroadcast.WireCodec(), nodes, nil, nil), digest: func() string {
			accepted, maxRound, forged := 0, 0, 0
			for _, nd := range nodes {
				if r, ok := nd.Accepted("m", src); ok {
					accepted++
					if r > maxRound {
						maxRound = r
					}
				}
				if _, ok := nd.Accepted("forged", src); ok {
					forged++
				}
			}
			return fmt.Sprintf("accepted=%d/%d maxRound=%d forged=%d", accepted, len(nodes), maxRound, forged)
		}, decided: func() (int, int, bool) {
			// Reliable broadcast never terminates on its own —
			// Node.Decided is always false by design — so the decided
			// column reports its actual terminal predicate: acceptance
			// of the source's message.
			done := 0
			for _, nd := range nodes {
				if _, ok := nd.Accepted("m", src); ok {
					done++
				}
			}
			return done, len(nodes), false
		}}

	case ProtoDynamic:
		var nodes []*dynamic.Node
		// The last len(leaveRounds) founders are the leavers; the
		// departure round is part of each node's own configuration (the
		// protocol's graceful-leave discipline).
		leaveAt := make(map[int]int, len(plan.leaveRounds))
		for j, r := range plan.leaveRounds {
			leaveAt[len(correct)-1-j] = r
		}
		for i, id := range correct {
			// Round-robin witness load: one event per round, rotating
			// through the correct founders.
			witness := make(map[int][]string)
			for r := 1; r <= s.MaxRounds; r++ {
				if r%len(correct) == i {
					witness[r] = []string{fmt.Sprintf("ev-%d-%d", i, r)}
				}
			}
			nodes = append(nodes, dynamic.New(dynamic.Config{ID: id, Founders: founders, Witness: witness, LeaveAt: leaveAt[i]}))
		}
		for _, id := range joiners {
			nodes = append(nodes, dynamic.New(dynamic.Config{ID: id})) // joins via the present/ack protocol
		}
		build := unionRun(dynamic.WireCodec(), nodes[:len(correct)], nodes[len(correct):], plan.joinRounds)
		return protocolRun{build: build, digest: func() string {
			if v := dynamic.PrefixViolations(nodes); v > 0 {
				panic(fmt.Sprintf("engine: dynamic chain-prefix violated (%d node pairs)", v))
			}
			gaps := 0
			for _, nd := range nodes {
				if nd.HarvestGap() {
					gaps++
				}
			}
			// Report the first founder that stayed; its chain is the
			// longest-lived view of the total order.
			rep := nodes[0]
			for _, nd := range nodes {
				if !nd.Left() {
					rep = nd
					break
				}
			}
			return fmt.Sprintf("chain=%d final=%d members=%d gaps=%d",
				rep.ChainLen(), rep.FinalRound(), len(rep.Members()), gaps)
		}, decided: func() (int, int, bool) {
			// The ordering service never decides — it runs until the
			// simulation stops. Rendered n/a, not 0/N.
			return 0, 0, true
		}, finish: func(res *Result) {
			for _, nd := range nodes {
				if nd.Left() {
					continue
				}
				if lag := nd.Round() - nd.FinalRound(); lag > res.FinalityLag {
					res.FinalityLag = lag
				}
			}
		}}

	case ProtoRotor:
		var nodes []*rotor.Node
		for i, id := range correct {
			nodes = append(nodes, rotor.New(id, float64(i)))
		}
		return protocolRun{build: boxedRun(nodes), decided: allDecided(nodes), digest: func() string {
			term := 0
			for _, nd := range nodes {
				if nd.DoneRound() > term {
					term = nd.DoneRound()
				}
			}
			return fmt.Sprintf("term=%d", term)
		}}

	case ProtoConsensus:
		var nodes []*consensus.Node
		for i, id := range correct {
			nodes = append(nodes, consensus.New(id, float64(i%2)))
		}
		return protocolRun{build: unionRun(consensus.WireCodec(), nodes, nil, nil), decided: allDecided(nodes), digest: func() string {
			phases, decidedRound := 0, 0
			for _, nd := range nodes {
				if !nd.Decided() {
					return "undecided"
				}
				if nd.Value() != nodes[0].Value() {
					panic("engine: consensus agreement violated")
				}
				if nd.Phases() > phases {
					phases = nd.Phases()
				}
				if nd.DecidedRound() > decidedRound {
					decidedRound = nd.DecidedRound()
				}
			}
			return fmt.Sprintf("value=%s phases=%d decidedRound=%d",
				strconv.FormatFloat(nodes[0].Value(), 'g', -1, 64), phases, decidedRound)
		}}

	case ProtoApprox:
		const iterations = 8
		var nodes []*approx.Iterated
		for i, id := range correct {
			nodes = append(nodes, approx.NewIterated(id, float64(i)*100/float64(max(len(correct)-1, 1)), iterations))
		}
		return protocolRun{build: boxedRun(nodes), decided: allDecided(nodes), digest: func() string {
			lo, hi := nodes[0].Value(), nodes[0].Value()
			for _, nd := range nodes {
				if nd.Value() < lo {
					lo = nd.Value()
				}
				if nd.Value() > hi {
					hi = nd.Value()
				}
			}
			return fmt.Sprintf("range=%s", strconv.FormatFloat(hi-lo, 'g', 6, 64))
		}}

	case ProtoParallel:
		var nodes []*parallel.Node
		for _, id := range correct {
			inputs := make(map[parallel.PairID]parallel.Val, s.Pairs)
			for p := 0; p < s.Pairs; p++ {
				inputs[parallel.PairID(p+1)] = parallel.V(fmt.Sprintf("v%d", p))
			}
			nodes = append(nodes, parallel.NewNode(id, inputs))
		}
		return protocolRun{build: unionRun(parallel.WireCodec(), nodes, nil, nil), decided: allDecided(nodes), digest: func() string {
			out := nodes[0].Outputs()
			for _, nd := range nodes[1:] {
				other := nd.Outputs()
				if len(other) != len(out) {
					panic("engine: parallel consensus agreement violated")
				}
				for k, v := range out { //lint:ordered agreement check panics on any mismatch, order-free
					if other[k] != v {
						panic("engine: parallel consensus agreement violated")
					}
				}
			}
			keys := make([]int, 0, len(out))
			for k := range out {
				keys = append(keys, int(k))
			}
			sort.Ints(keys)
			parts := make([]string, 0, len(keys))
			for _, k := range keys {
				parts = append(parts, fmt.Sprintf("%d=%v", k, out[parallel.PairID(k)]))
			}
			return "pairs{" + strings.Join(parts, ",") + "}"
		}}

	case ProtoRing:
		// The overlay spans the correct nodes only (ids.Sparse sorts, so
		// correct[0] is the true minimum): faulty nodes sit outside the
		// ring and can only inject, never partition it, which keeps the
		// log-round convergence bound intact under every adversary that
		// does not forge probes.
		var nodes []*ring.Node
		horizon := ring.Horizon(len(correct))
		for i, id := range correct {
			nodes = append(nodes, ring.New(id, ring.Successors(correct, i), horizon))
		}
		want := correct[0]
		return protocolRun{build: unionRun(ring.WireCodec(), nodes, nil, nil), decided: allDecided(nodes), digest: func() string {
			converged := 0
			for _, nd := range nodes {
				if nd.Min() == want {
					converged++
				}
			}
			if s.Adversary == AdvNone && converged != len(nodes) {
				panic(fmt.Sprintf("engine: ring flood incomplete (%d/%d at min=%d)", converged, len(nodes), want))
			}
			return fmt.Sprintf("min=%d converged=%d/%d", want, converged, len(nodes))
		}}
	}
	panic("engine: buildProtocol on unvalidated scenario")
}

// buildAdversary resolves the scenario's adversary name to a concrete
// strategy. "split" picks the strongest value-targeting attack known
// for the protocol. rng is the scenario's own generator (already
// advanced past id generation), so seeded adversaries stay per-scenario
// deterministic.
func buildAdversary(s Scenario, all, correct []ids.ID, rng *ids.Rand) sim.Adversary {
	switch s.Adversary {
	case AdvSilent:
		return adversary.Silent{}
	case AdvReplay:
		return adversary.Replay{}
	case AdvChaos:
		return adversary.NewChaos(rng.Uint64(), all)
	case AdvSplit:
		switch s.Protocol {
		case ProtoRBroadcast:
			return adversary.RBForgeSource{FakeM: "forged", FakeS: correct[0]}
		case ProtoRotor:
			per := make(map[ids.ID]sim.Adversary)
			faulty := all[len(correct):]
			for i, id := range faulty {
				per[id] = &adversary.RotorHidden{Subset: correct[:1+i%len(correct)], All: all, X1: -1, X2: -2}
			}
			return adversary.Compose{PerNode: per}
		case ProtoConsensus:
			return adversary.ConsSplit{X1: 0, X2: 1, All: all}
		case ProtoApprox:
			return adversary.ApproxOutlier{Low: -1e6, High: 1e6, All: all}
		case ProtoParallel:
			return adversary.ParaSplit{Pair: 1, X1: parallel.V("a"), X2: parallel.V("b"), All: all}
		case ProtoDynamic:
			return adversary.DynEquivEvent{All: all, Every: 2}
		}
	}
	panic(fmt.Sprintf("engine: buildAdversary(%q, %q) on unvalidated scenario", s.Adversary, s.Protocol))
}

// Grid declares a cross product of scenarios: every protocol × every
// adversary × every size × every churn spec × every seed. The fault
// count is the maximum the resiliency bound allows, f = ⌊(n-1)/3⌋ (0
// for the "none" adversary).
type Grid struct {
	Name        string   `json:"name"`
	Protocols   []string `json:"protocols"`
	Adversaries []string `json:"adversaries"`
	Sizes       []int    `json:"sizes"`
	Seeds       []uint64 `json:"seeds"`
	MaxRounds   int      `json:"max_rounds,omitempty"` // 0 = per-protocol default

	// Churns is the churn axis; empty means one static (zero-churn)
	// column. Each spec is sanitized per cell (Churn.clampFor): correct
	// joins/leaves apply only to the dynamic protocol and faulty churn
	// is bounded by the cell's fault budget.
	Churns []Churn `json:"churns,omitempty"`
}

// Scenarios expands the grid in deterministic order: protocol-major,
// then adversary, size, churn, seed. Every scenario comes with its
// default name, rendered here once: nothing downstream renders it
// again. Each name is its own string, so a value that outlives the
// sweep (a run record's shard table, say) keeps only its own name.
func (g Grid) Scenarios() []Scenario {
	churns := g.Churns
	if len(churns) == 0 {
		churns = []Churn{{}}
	}
	total := len(g.Protocols) * len(g.Adversaries) * len(g.Sizes) * len(churns) * len(g.Seeds)
	specs := make([]Scenario, 0, total)
	var name [128]byte
	for _, proto := range g.Protocols {
		for _, adv := range g.Adversaries {
			for _, n := range g.Sizes {
				f := (n - 1) / 3
				if adv == AdvNone {
					f = 0
				}
				for _, ch := range churns {
					var spec *Churn
					if cc := ch.clampFor(proto, n, f); !cc.IsZero() {
						c := cc
						spec = &c
					}
					for _, seed := range g.Seeds {
						s := Scenario{
							Protocol:  proto,
							Adversary: adv,
							N:         n,
							F:         f,
							Seed:      seed,
							MaxRounds: g.MaxRounds,
							Churn:     spec,
						}
						s.Name = string(s.appendName(name[:0]))
						specs = append(specs, s)
					}
				}
			}
		}
	}
	return specs
}

// seedRange returns [1, n].
func seedRange(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = uint64(i + 1)
	}
	return out
}

// presetChurns is the churn axis of the preset grids: a static column
// and a fully loaded churn column (joins + graceful leaves on the
// dynamic protocol, late-entering and mid-run-removed faulty nodes
// everywhere the fault budget allows).
func presetChurns() []Churn {
	return []Churn{
		{},
		{Joins: 1, Leaves: 1, FaultyJoins: 1, FaultyLeaves: 1},
	}
}

// PresetGrid returns one of the named benchmark grids: "small" (288
// scenarios), "medium" (864) or "large" (1920), each crossing a static
// column against a churn column (see presetChurns) — or "scale" (3
// scenarios), the ring workload at n = 1k/10k/100k that probes the
// simulator's scale frontier on the monomorphized fast path.
func PresetGrid(name string) (Grid, error) {
	switch name {
	case "scale":
		return Grid{
			Name:        "scale",
			Protocols:   []string{ProtoRing},
			Adversaries: []string{AdvNone},
			Sizes:       []int{1000, 10000, 100000},
			Seeds:       seedRange(1),
		}, nil
	case "small":
		return Grid{
			Name:        "small",
			Protocols:   Protocols(),
			Adversaries: []string{AdvSilent, AdvSplit},
			Sizes:       []int{7, 14},
			Seeds:       seedRange(6),
			Churns:      presetChurns(),
		}, nil
	case "medium":
		return Grid{
			Name:        "medium",
			Protocols:   Protocols(),
			Adversaries: []string{AdvSilent, AdvSplit, AdvChaos},
			Sizes:       []int{7, 14, 32},
			Seeds:       seedRange(8),
			Churns:      presetChurns(),
		}, nil
	case "large":
		return Grid{
			Name:        "large",
			Protocols:   Protocols(),
			Adversaries: []string{AdvSilent, AdvSplit, AdvChaos, AdvReplay},
			Sizes:       []int{7, 14, 32, 62},
			Seeds:       seedRange(10),
			Churns:      presetChurns(),
		}, nil
	}
	return Grid{}, fmt.Errorf("engine: unknown grid %q (want small, medium, large or scale)", name)
}
