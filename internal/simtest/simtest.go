package simtest

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"io"
	"iter"
	"reflect"
	"slices"
	"sync"
	"testing"

	"idonly/internal/ids"
	"idonly/internal/sim"
)

// System is one run before it is played: the founding processes
// (freshly constructed — a system runs once), the faulty ids and their
// adversary, and the membership changes of the run.
type System struct {
	Procs        []sim.Process
	Faulty       []ids.ID // present from round 1
	Adv          sim.Adversary
	Joins        []Join         // correct joiners, in construction order
	FaultyJoins  map[int]ids.ID // faulty joiners by round
	FaultyLeaves map[int]ids.ID // faulty node leaving at the end of the given round
	Guard        *Guard         // when set, every Step of the run is checked
}

// Join is a correct process joining at a round.
type Join struct {
	Round int
	Proc  sim.Process
}

// All lists every correct process of the run in construction order:
// founders, then joiners.
func (s System) All() []sim.Process {
	out := slices.Clone(s.Procs)
	for _, j := range s.Joins {
		out = append(out, j.Proc)
	}
	return out
}

// step is p as the run steps it: decorated when the run is guarded.
func (s System) step(p sim.Process) sim.Process {
	if s.Guard == nil {
		return p
	}
	return guardedProc{p, s.Guard}
}

func (s System) adversary() sim.Adversary {
	if s.Guard == nil || s.Adv == nil {
		return s.Adv
	}
	return guardedAdv{s.Adv, s.Guard}
}

// Play runs a system to completion under a config and returns the run's
// metrics: the model and each of the core's instantiations is one.
type Play func(cfg sim.Config, s System) sim.Metrics

type runner interface {
	Run(stop func(round int) bool) sim.Metrics
	ScheduleFaultyJoin(round int, id ids.ID)
	ScheduleFaultyLeave(round int, id ids.ID)
}

// play schedules the system's faulty joins and leaves on a runner that
// already holds its correct processes, and runs it.
func (s System) play(run runner) sim.Metrics {
	for round, id := range s.FaultyJoins { //lint:ordered one id per round: the order of scheduling is not the schedule
		run.ScheduleFaultyJoin(round, id)
	}
	for round, id := range s.FaultyLeaves { //lint:ordered one id per round: the order of scheduling is not the schedule
		run.ScheduleFaultyLeave(round, id)
	}
	return run.Run(nil)
}

// Boxed plays a system on the core instantiated over boxed payloads.
func Boxed(cfg sim.Config, s System) sim.Metrics {
	procs := make([]sim.Process, len(s.Procs))
	for i, p := range s.Procs {
		procs[i] = s.step(p)
	}
	run := sim.NewRunner(cfg, procs, s.Faulty, s.adversary())
	for _, j := range s.Joins {
		run.ScheduleJoin(j.Round, s.step(j.Proc))
	}
	return s.play(run)
}

// Typed returns the play of systems whose processes, joiners included,
// are all P on the core instantiated over P's wire union.
func Typed[P sim.ProcessT[M], M sim.WireMsg[M]](codec sim.Codec[M]) Play {
	return func(cfg sim.Config, s System) sim.Metrics {
		if s.Guard == nil {
			return typed(cfg, s, codec, func(p sim.Process) P { return p.(P) })
		}
		return typed(cfg, s, codec, func(p sim.Process) guardedT[M] { return guardedT[M]{p.(P), s.Guard} })
	}
}

func typed[Q sim.ProcessT[M], M sim.WireMsg[M]](cfg sim.Config, s System, codec sim.Codec[M], lift func(sim.Process) Q) sim.Metrics {
	procs := make([]Q, len(s.Procs))
	for i, p := range s.Procs {
		procs[i] = lift(p)
	}
	run := sim.NewTypedRunner(cfg, procs, s.Faulty, s.adversary(), codec)
	for _, j := range s.Joins {
		run.ScheduleJoin(j.Round, lift(j.Proc))
	}
	return s.play(run)
}

// Strategy is a way to execute a system. Of returns its play for a
// workload whose typed instantiation is typed (nil: the workload has no
// wire union), or nil when it cannot play the workload.
type Strategy struct {
	Name string
	Of   func(typed Play) Play
}

// Strategies is the one strategy list. The first is the model, the
// reference every other strategy is held to; the others are the core,
// over boxed payloads and over the workload's wire union. Adding a
// strategy is adding an entry.
var Strategies = []Strategy{
	{"model", func(Play) Play { return Model }},
	{"boxed", func(Play) Play { return Boxed }},
	{"typed", func(typed Play) Play { return typed }},
}

// Plays yields, in list order, each strategy that can play a workload
// whose typed instantiation is typed, with its play.
func Plays(typed Play) iter.Seq2[Strategy, Play] {
	return func(yield func(Strategy, Play) bool) {
		for _, st := range Strategies {
			if play := st.Of(typed); play != nil && !yield(st, play) {
				return
			}
		}
	}
}

// Relabel maps the ids a system draws; Same keeps them as drawn.
type Relabel func(ids.ID) ids.ID

func Same(id ids.ID) ids.ID { return id }

// Workload is a named system with its run limits and, where its
// processes have a wire union, the typed play. Sys builds the system
// with every id it draws passed through a Relabel.
type Workload struct {
	Name        string
	MaxRounds   int
	StopDecided bool
	Sys         func(g Relabel) System
	Typed       Play // nil: no wire union
	Gauges      bool // the digest covers the churn gauges instead of the decided rounds
}

// Config is the workload's run configuration, with obs as its
// observer.
func (w Workload) Config(obs sim.Observer) sim.Config {
	return sim.Config{MaxRounds: w.MaxRounds, StopWhenAllDecided: w.StopDecided, Observer: obs}
}

// Result is what one run of a workload shows.
type Result struct {
	// Digest is an FNV-1a 64 digest of the observer trace (every send
	// of every correct node in every round), the final outputs in
	// construction order and the metrics: the decided rounds, or the
	// churn gauges for a workload that says so. Allocation diagnostics
	// (InboxGrows) are left out: it pins the schedule, not the
	// allocator.
	Digest string
	// Trace is an FNV-1a 64 digest of the trace and the outputs alone.
	Trace   uint64
	Metrics sim.Metrics
}

// Run plays w's system, as drawn and guarded by g when g is not nil.
func Run(w Workload, play Play, g *Guard) Result {
	h, th := fnv.New64a(), fnv.New64a()
	both := io.MultiWriter(h, th)
	s := w.Sys(Same)
	s.Guard = g
	m := play(w.Config(func(round int, from ids.ID, sends []sim.Send) {
		fmt.Fprintf(both, "r%d %d %v\n", round, from, sends)
	}), s)
	for _, p := range s.All() {
		fmt.Fprintf(both, "out %d %v\n", p.ID(), p.Output())
	}
	fmt.Fprintf(h, "rounds=%d delivered=%d dropped=%d byround=%v",
		m.Rounds, m.MessagesDelivered, m.MessagesDropped, m.ByRound)
	if w.Gauges {
		fmt.Fprintf(h, " joins=%d leaves=%d peak=%d min=%d\n", m.Joins, m.Leaves, m.PeakNodes, m.MinNodes)
	} else {
		fmt.Fprintln(h)
		decided := make([]ids.ID, 0, len(m.DecidedRound))
		for id := range m.DecidedRound {
			decided = append(decided, id)
		}
		slices.Sort(decided)
		for _, id := range decided {
			fmt.Fprintf(h, "decided %d r%d\n", id, m.DecidedRound[id])
		}
	}
	return Result{fmt.Sprintf("%016x", h.Sum64()), th.Sum64(), m}
}

// Copies is the matrix's copies column: how many copies of one run
// play at once, each on its own goroutine, as a sweep's worker pool
// runs scenarios. Every copy must reproduce the reference, so two runs
// share no mutable state; under -race the column also reports any
// unsynchronised access between them.
var Copies = []int{1, 4}

// Concurrently calls run(0) … run(n-1) on goroutines of their own and
// waits for all of them.
func Concurrently(n int, run func(i int)) {
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(i)
		}()
	}
	wg.Wait()
}

// Row is a matrix row: a workload and its pinned digest, or "" to hold
// it to the model's.
type Row struct {
	Workload
	Want string
}

// Matrix plays every row on every strategy that can play it, alone and
// as each count of Copies concurrent copies, under a guard of its own
// per copy when guarded, in subtests named row/strategy/workers=n.
// Every copy must reproduce the row's digest, hand its guard no inbox
// write, and match the model's metrics field for field. InboxGrows,
// which the model has no allocator to describe, must agree across the
// core's strategies: there is one presize policy.
func Matrix(t *testing.T, rows []Row, guarded bool) {
	for _, row := range rows {
		ref := Run(row.Workload, Model, nil)
		want, grows := cmp.Or(row.Want, ref.Digest), int64(-1)
		for st, play := range Plays(row.Typed) {
			for _, n := range Copies {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", row.Name, st.Name, n), func(t *testing.T) {
					got, guards := make([]Result, n), make([]*Guard, n)
					Concurrently(n, func(i int) {
						if guarded {
							guards[i] = new(Guard)
						}
						got[i] = Run(row.Workload, play, guards[i])
					})
					for i, r := range got {
						if r.Digest != want {
							t.Fatalf("copy %d: digest %s, want %s", i, r.Digest, want)
						}
						if err := guards[i].Err(); err != nil {
							t.Fatalf("copy %d: %v", i, err)
						}
						m := r.Metrics
						if st.Name != Strategies[0].Name {
							if grows < 0 {
								grows = m.InboxGrows
							}
							if m.InboxGrows != grows {
								t.Fatalf("copy %d: InboxGrows %d, another core strategy %d", i, m.InboxGrows, grows)
							}
							m.InboxGrows = 0
						}
						if !reflect.DeepEqual(m, ref.Metrics) {
							t.Fatalf("copy %d: metrics differ from the model's:\ngot   %+v\nmodel %+v", i, m, ref.Metrics)
						}
					}
				})
			}
		}
	}
}
