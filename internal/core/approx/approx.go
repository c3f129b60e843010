// Package approx implements Algorithm 4 of the paper: approximate
// agreement in the id-only model.
//
// Every correct node broadcasts its real-valued input, collects the
// set Rv of received values (one per sender, including its own
// self-copy), discards the ⌊nv/3⌋ smallest and ⌊nv/3⌋ largest values,
// and outputs the midpoint of the survivors' extremes. For n > 3f the
// output of every correct node lies inside the correct input range and
// the correct output range is at most half the correct input range
// (Theorem 4) — so iterating the step converges exponentially, exactly
// as in the classical Dolev et al. algorithm that assumed f was known.
//
// Iterated is the one process type: it broadcasts on its first Step and
// then, for each of its iterations, reduces what arrived and
// re-broadcasts the updated value. One iteration is the one-shot
// algorithm (broadcast in round 1, decide in round 2); many are the
// convergence workload of experiment E6 and the sensor-fusion example.
package approx

import (
	"sort"

	"idonly/internal/ids"
	"idonly/internal/quorum"
	"idonly/internal/sim"
)

// Value is the broadcast carrying a node's current real-valued input.
type Value struct {
	X float64
}

// Reduce applies the trim-and-midpoint rule of Algorithm 4 (lines 3–4)
// to the received values: it discards the ⌊n/3⌋ smallest and largest
// and returns the midpoint of the remaining extremes. It panics if the
// trim would discard everything (n must be ≥ 1 and the trim leaves
// n − 2⌊n/3⌋ ≥ 1 values for any n ≥ 1).
func Reduce(values []float64) float64 {
	sorted := make([]float64, len(values))
	copy(sorted, values)
	return reduceInPlace(sorted)
}

// reduceInPlace is Reduce over a caller-owned scratch slice it may
// freely reorder — the allocation-free path of the iterated workloads.
func reduceInPlace(values []float64) float64 {
	nv := len(values)
	if nv == 0 {
		panic("approx: Reduce with no values")
	}
	sort.Float64s(values)
	t := quorum.FloorThird(nv)
	kept := values[t : nv-t]
	// Halve before adding so the midpoint of two near-MaxFloat64 values
	// cannot overflow to ±Inf.
	return kept[0]/2 + kept[len(kept)-1]/2
}

// Iterated runs Algorithm 4 repeatedly for a fixed number of
// iterations: each round it reduces the values received and broadcasts
// the updated value. History records the value after every iteration
// so the experiments can measure the contraction rate.
type Iterated struct {
	id         ids.ID
	x          float64
	iterations int
	done       int
	first      int // the global round of this node's first Step (0 = not stepped yet)
	decided    bool
	History    []float64

	// Per-round scratch for collectInto/reduceInPlace, reused across
	// iterations.
	seenScratch map[ids.ID]bool
	valScratch  []float64
	sends       []sim.Send // backs Step's return value, reused
}

// NewIterated returns a node that performs the given number of
// broadcast-and-reduce iterations starting from input x.
func NewIterated(id ids.ID, x float64, iterations int) *Iterated {
	if iterations < 1 {
		panic("approx: NewIterated needs at least one iteration")
	}
	return &Iterated{id: id, x: x, iterations: iterations}
}

// ID implements sim.Process.
func (n *Iterated) ID() ids.ID { return n.id }

// Decided implements sim.Process.
func (n *Iterated) Decided() bool { return n.decided }

// Output implements sim.Process.
func (n *Iterated) Output() any { return n.x }

// Value returns the current value.
func (n *Iterated) Value() float64 { return n.x }

// Step implements sim.Process. The node may join a running system at
// any round (§XI: participants enter and leave every round); its first
// Step only broadcasts, and every later Step reduces whatever arrived.
func (n *Iterated) Step(round int, inbox []sim.Message) []sim.Send {
	if n.first == 0 {
		n.first = round
	}
	if round > n.first {
		if n.seenScratch == nil {
			n.seenScratch = make(map[ids.ID]bool)
		}
		clear(n.seenScratch)
		n.valScratch = collectInto(inbox, n.seenScratch, n.valScratch[:0])
		n.x = reduceInPlace(n.valScratch)
		n.History = append(n.History, n.x)
		n.done++
		if n.done >= n.iterations {
			n.decided = true
			return nil
		}
	}
	n.sends = append(n.sends[:0], sim.BroadcastPayload(Value{X: n.x}))
	return n.sends
}

// collectInto extracts one value per sender from the inbox (the first
// in the deterministic inbox order; a Byzantine node that sends several
// distinct values in one round still contributes only one to Rv, since
// the model delivers at most one value per sender per round to the
// algorithm's multiset Rv). seen must be empty; values is appended to
// and returned.
func collectInto(inbox []sim.Message, seen map[ids.ID]bool, values []float64) []float64 {
	for _, msg := range inbox {
		v, ok := msg.Payload.(Value)
		if !ok || seen[msg.From] {
			continue
		}
		seen[msg.From] = true
		values = append(values, v.X)
	}
	return values
}
