// Package ring is the scale-frontier workload: minimum-id agreement by
// epidemic gossip over a doubling-distance ring overlay.
//
// It is a synthetic protocol, not one of the paper's algorithms — it
// exists to exercise the simulator at n = 1k/10k/100k, where the
// paper's all-broadcast protocols cost Θ(n²) deliveries per round and
// stop being a useful scaling probe. Each node unicasts along a sparse
// overlay instead: with all n ids sorted into a ring, node i's
// successors sit at index distances 1, 2, 4, … (every power of two
// below n), so each round costs n·⌈log₂ n⌉ deliveries.
//
// Convergence takes logarithmically many rounds: any index distance
// d < n is a sum of at most ⌈log₂ n⌉ distinct powers of two, and in
// each round every current holder of the minimum forwards it along
// every jump simultaneously, so after r send-rounds the minimum has
// reached every index reachable by a sum of at most r powers. Horizon
// send-absorb rounds therefore suffice to flood the global minimum to
// every node (Horizon = ⌈log₂ n⌉ + 1, the extra round being the final
// absorb), at which point every node decides on its current minimum.
//
// The node's round logic is StepTyped (sim.ProcessT[Probe]); its
// sim.Process Step is derived through the codec, so it runs identically
// on the reference and the monomorphized plane — the engine's scale
// smoke test holds the two schedules byte-equal.
package ring

import (
	"cmp"
	"math/bits"

	"idonly/internal/ids"
	"idonly/internal/sim"
)

// Probe carries the sender's current minimum id. It is its own wire
// type: the protocol's whole alphabet is this one struct, so the typed
// plane carries it without a union wrapper. The zero Probe is no
// message (BoxedStep delivers payloads outside the alphabet as it):
// ids.Sparse never draws id 0, so no real minimum is 0.
type Probe struct {
	Min ids.ID
}

// tagProbe is Probe's sort-key tag, from ring's range 0x70–0x7f.
const tagProbe byte = 0x70

// AppendSortKey implements sim.SortKeyer: the tag, then the minimum.
func (p Probe) AppendSortKey(dst []byte) []byte {
	return sim.AppendUint(append(dst, tagProbe), uint64(p.Min))
}

// Compare implements sim.WireMsg: one tag, so the minimum decides.
func (p Probe) Compare(o Probe) int { return cmp.Compare(p.Min, o.Min) }

// codec is the identity codec for the probe alphabet.
var codec = sim.Codec[Probe]{
	Wrap: func(p any) (Probe, bool) {
		v, ok := p.(Probe)
		return v, ok
	},
	Unwrap: func(m Probe) any { return m },
}

// WireCodec returns the identity codec for the probe alphabet.
func WireCodec() sim.Codec[Probe] { return codec }

// Horizon returns the number of rounds after which every node decides:
// ⌈log₂ n⌉ send rounds plus the final absorb round.
func Horizon(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n-1)) + 1
}

// Successors returns slot i's overlay neighbours drawn from the sorted
// membership ring: the ids at index distances 1, 2, 4, … below n.
func Successors(all []ids.ID, i int) []ids.ID {
	n := len(all)
	succ := make([]ids.ID, 0, bits.Len(uint(max(n-1, 0))))
	for d := 1; d < n; d *= 2 {
		succ = append(succ, all[(i+d)%n])
	}
	return succ
}

// Node is one participant. It gossips its running minimum along its
// overlay successors each round and decides at the horizon.
type Node struct {
	id      ids.ID
	min     ids.ID
	succ    []ids.ID
	horizon int
	decided bool

	out   []sim.SendT[Probe]   // backs StepTyped's return value, reused
	boxed sim.BoxedStep[Probe] // Step's scratch on the boxed plane
}

// New returns a node with the given overlay successors and decision
// horizon (use Successors and Horizon to derive both). Its send
// scratch is sized for one probe per successor.
func New(id ids.ID, succ []ids.ID, horizon int) *Node {
	return &Node{id: id, min: id, succ: succ, horizon: horizon, out: make([]sim.SendT[Probe], 0, len(succ))}
}

// ID implements sim.Process and sim.ProcessT.
func (n *Node) ID() ids.ID { return n.id }

// Decided implements sim.Process and sim.ProcessT.
func (n *Node) Decided() bool { return n.decided }

// Output implements sim.Process and sim.ProcessT.
func (n *Node) Output() any { return n.min }

// Min returns the node's current minimum.
func (n *Node) Min() ids.ID { return n.min }

// Step implements sim.Process through the probe codec.
func (n *Node) Step(round int, inbox []sim.Message) []sim.Send {
	return n.boxed.Step(n, codec, round, inbox)
}

// StepTyped implements sim.ProcessT[Probe]: fold the received minima
// into the running one (the zero Probe carries none), then gossip it
// along the overlay until the horizon decides.
func (n *Node) StepTyped(round int, inbox []sim.MsgT[Probe]) []sim.SendT[Probe] {
	for _, msg := range inbox {
		if m := msg.Payload.Min; m != 0 && m < n.min {
			n.min = m
		}
	}
	if round >= n.horizon {
		n.decided = true
		return nil
	}
	out := n.out[:0]
	for _, s := range n.succ {
		out = append(out, sim.UnicastT(s, Probe{Min: n.min}))
	}
	n.out = out
	return out
}
