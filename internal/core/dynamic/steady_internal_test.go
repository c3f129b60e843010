package dynamic

import (
	"fmt"
	"testing"

	"idonly/internal/core/rotor"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// silent is the adversary that sends nothing (internal/adversary imports
// this package), blind like adversary.Silent.
type silent struct{}

func (silent) Step(ids.ID, int, []sim.Message) []sim.Send { return nil }
func (silent) Blind()                                     {}

// ghosts is a blind adversary whose every faulty node, every round,
// echoes a fresh forged candidate into every session that can still be
// live: the worst a forger can do to a node's books. Its sends are
// boxed ahead of time, so that they cost the measured rounds nothing.
type ghosts [][]sim.Send

func newGhosts(window, rounds int) ghosts {
	g := make(ghosts, rounds+1)
	for round := 1; round <= rounds; round++ {
		ghost := rotor.Echo{P: ids.ID(1<<40 + round)}
		for tag := max(1, round-window); tag <= round; tag++ {
			g[round] = append(g[round], sim.BroadcastPayload(SessMsg{Sess: tag, Inner: ghost}))
		}
	}
	return g
}

func (g ghosts) Step(_ ids.ID, round int, _ []sim.Message) []sim.Send { return g[round] }
func (ghosts) Blind()                                                 {}

// stepper is what the steady-state tests drive: either instantiation of
// the runner core.
type stepper interface {
	StepRound()
	Round() int
}

// steadySystem builds n founders of which the last f are faulty,
// played by adv; every correct one witnesses an event each fifth round,
// so a session has two inputs and every round starts, runs, stops and
// harvests sessions. The runner — over boxed payloads, or typed over
// the wire union — has no round limit.
func steadySystem(n, f, rounds int, typed bool, adv sim.Adversary) (stepper, []*Node) {
	all := ids.Sparse(ids.NewRand(14), n)
	var nodes []*Node
	for i, id := range all[:n-f] {
		witness := make(map[int][]string)
		for r := 1 + i%5; r <= rounds; r += 5 {
			witness[r] = []string{fmt.Sprintf("e%d-%d", i, r)}
		}
		nodes = append(nodes, New(Config{ID: id, Founders: all, Witness: witness}))
	}
	if typed {
		return sim.NewTypedRunner(sim.Config{}, nodes, all[n-f:], adv, WireCodec()), nodes
	}
	return sim.NewRunner(sim.Config{}, nodes, all[n-f:], adv), nodes
}

// machinesAllocated is how many machines nd has ever built: none is
// dropped, each is either in a live session or on the free list.
func machinesAllocated(nd *Node) int {
	k := len(nd.free)
	for _, s := range nd.sessions {
		if s.machine != nil {
			k++
		}
	}
	return k
}

// TestSteadyStateAllocs pins what recycling buys once every node has
// been through a full finality window (5|S|/2+3 rounds): a round no
// longer builds machines, instances, tallies or witness sets, so what it
// allocates is what it sends and the captured outputs of the sessions
// that stop. On the typed runner a session message is a wire value,
// never boxed. The boxed runner's derived Step unwraps each session
// message it sends into two boxes, the SessMsg and its inner payload,
// as the node's own Step did before it had a wire union. With a fresh
// machine per node and round the same round allocated 1606 times. Over
// the whole run a node builds machines for the sessions it has live at
// once, never one per round.
//
// The same holds for 320 rounds under forgers that echo a fresh ghost
// candidate into every live session each round. Candidates are numbered
// per execution, so the ghosts cost no steady allocation, and a node's
// own index never numbers more ids than have been members.
func TestSteadyStateAllocs(t *testing.T) {
	const (
		n, f   = 14, 4
		window = 5*n/2 + 3
	)
	// Measured for one round of the 10 correct nodes: typed 20, boxed
	// 556 (two boxes per session message sent).
	budgets := map[bool]float64{true: 40, false: 700}
	advs := []struct {
		name   string
		adv    sim.Adversary
		rounds int
	}{
		{"silent", silent{}, 200},
		{"ghosts", newGhosts(window, 400), 320},
	}
	for _, typed := range []bool{true, false} {
		for _, a := range advs {
			r, nodes := steadySystem(n, f, 400, typed, a.adv)
			step := func() {
				r.StepRound()
				for _, nd := range nodes {
					if nd.idx.Len() > n {
						t.Fatalf("%s: node %d numbers %d ids, but only %d were ever members", a.name, nd.id, nd.idx.Len(), n)
					}
				}
			}
			for r.Round() < 2*window {
				step()
			}
			got := testing.AllocsPerRun(50, r.StepRound)
			t.Logf("typed=%v %s: %.0f allocations per steady round", typed, a.name, got)
			if got > budgets[typed] {
				t.Fatalf("typed=%v %s: a steady-state round allocates %.0f times, budget %.0f", typed, a.name, got, budgets[typed])
			}
			for r.Round() < a.rounds {
				step()
			}
			for _, nd := range nodes {
				if got := machinesAllocated(nd); got > window {
					t.Fatalf("%s: node %d built %d machines in %d rounds, bound 5|S|/2+3 = %d", a.name, nd.id, got, r.Round(), window)
				}
				if nd.HarvestGap() || nd.ChainLen() == 0 {
					t.Fatalf("%s: node %d: harvest gap %v, chain %d", a.name, nd.id, nd.HarvestGap(), nd.ChainLen())
				}
			}
			t.Logf("%s: machines built per node after %d rounds: %d (sessions held: %d)", a.name, r.Round(), machinesAllocated(nodes[0]), len(nodes[0].sessions))
		}
	}
}

// BenchmarkDynamicRound measures one steady-state round of the whole
// system on both planes: ns/round and allocs/round.
func BenchmarkDynamicRound(b *testing.B) {
	for _, plane := range []string{"typed", "boxed"} {
		for _, n := range []int{7, 14} {
			b.Run(fmt.Sprintf("%s/n=%d", plane, n), func(b *testing.B) {
				r, _ := steadySystem(n, (n-1)/3, 100+b.N, plane == "typed", silent{})
				for r.Round() < 5*n+6 {
					r.StepRound()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.StepRound()
				}
			})
		}
	}
}
