package dynamic

import (
	"fmt"
	"testing"

	"idonly/internal/ids"
	"idonly/internal/sim"
)

// silent is the adversary that sends nothing (internal/adversary imports
// this package).
type silent struct{}

func (silent) Step(ids.ID, int, []sim.Message) []sim.Send { return nil }

// steadySystem builds n founders of which the last f are faulty and
// silent; every correct one witnesses an event each fifth round, so a
// session has two inputs and every round starts, runs, stops and
// harvests sessions. The runner has no round limit.
func steadySystem(n, f, rounds int) (*sim.Runner, []*Node) {
	all := ids.Sparse(ids.NewRand(14), n)
	var nodes []*Node
	var procs []sim.Process
	for i, id := range all[:n-f] {
		witness := make(map[int][]string)
		for r := 1 + i%5; r <= rounds; r += 5 {
			witness[r] = []string{fmt.Sprintf("e%d-%d", i, r)}
		}
		nd := New(Config{ID: id, Founders: all, Witness: witness})
		nodes = append(nodes, nd)
		procs = append(procs, nd)
	}
	return sim.NewRunner(sim.Config{}, procs, all[n-f:], silent{}), nodes
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
// allocates is what it sends — two boxes per session message — plus the
// captured outputs of the sessions that stop. With a fresh machine per
// node and round the same round allocated 1606 times. Over the whole run
// a node builds machines for the sessions it has live at once, never
// one per round.
func TestSteadyStateAllocs(t *testing.T) {
	const (
		n, f   = 14, 4
		window = 5*n/2 + 3
		budget = 700 // measured 556 for one round of the 10 correct nodes
	)
	r, nodes := steadySystem(n, f, 400)
	for r.Round() < 2*window {
		r.StepRound()
	}
	if got := testing.AllocsPerRun(50, r.StepRound); got > budget {
		t.Fatalf("a steady-state round allocates %.0f times, budget %d", got, budget)
	}
	for r.Round() < 200 {
		r.StepRound()
	}
	for _, nd := range nodes {
		if got := machinesAllocated(nd); got > window {
			t.Fatalf("node %d built %d machines in %d rounds, bound 5|S|/2+3 = %d", nd.id, got, r.Round(), window)
		}
		if nd.HarvestGap() || nd.ChainLen() == 0 {
			t.Fatalf("node %d: harvest gap %v, chain %d", nd.id, nd.HarvestGap(), nd.ChainLen())
		}
	}
	t.Logf("machines built per node after %d rounds: %d (sessions held: %d)", r.Round(), machinesAllocated(nodes[0]), len(nodes[0].sessions))
}

// BenchmarkDynamicRound measures one steady-state round of the whole
// system: ns/round and allocs/round.
func BenchmarkDynamicRound(b *testing.B) {
	for _, n := range []int{7, 14} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r, _ := steadySystem(n, (n-1)/3, 100+b.N)
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
