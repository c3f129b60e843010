// Package baseline implements the classical known-n,f algorithms that
// the paper's id-only algorithms generalize, on the same simulator:
//
//   - STBroadcast: Srikanth–Toueg reliable broadcast with the classical
//     thresholds (relay at f+1 echoes, accept at 2f+1);
//   - King: Berman–Garay–Perry-style phase-king consensus with known n
//     and f and consecutive identifiers (the phase-p king is node p);
//   - Approx: Dolev et al. approximate agreement discarding exactly f
//     values at each extreme.
//
// The baselines exist for the E1/E5/E6 comparisons: the paper's §XII
// claims that dropping the knowledge of n and f changes neither the
// resiliency nor, essentially, the round and message complexity. The
// King structure mirrors the id-only consensus phase layout (input /
// prefer / strongprefer / king / evaluate) so that the two differ only
// in what the paper changes: thresholds (f+1, n−f vs nv/3, 2nv/3) and
// leader selection (round-robin over consecutive ids vs the
// rotor-coordinator), with no initialization rounds since membership is
// known a priori.
package baseline

import (
	"sort"

	"idonly/internal/ids"
	"idonly/internal/quorum"
	"idonly/internal/sim"
)

// ---------------------------------------------------------------------
// Srikanth–Toueg reliable broadcast (known n, f)
// ---------------------------------------------------------------------

// STInitial is the (m, s) message broadcast by the source.
type STInitial struct {
	M string
	S ids.ID
}

// STEcho is the classical echo message.
type STEcho struct {
	M string
	S ids.ID
}

// STKey identifies a broadcast (m, s).
type STKey struct {
	M string
	S ids.ID
}

// STNode is a Srikanth–Toueg reliable broadcast participant that knows
// f. Relay threshold f+1, accept threshold 2f+1 (sound for n > 3f).
type STNode struct {
	id       ids.ID
	f        int
	source   bool
	m        string
	idx      quorum.Index // numbers the echo senders
	echoes   *quorum.Witnesses[STKey]
	echoed   map[STKey]bool
	accepted map[STKey]int
}

// NewSTNode returns a node; if source, it broadcasts (m, id) in round 1.
func NewSTNode(id ids.ID, f int, source bool, m string) *STNode {
	return &STNode{
		id:       id,
		f:        f,
		source:   source,
		m:        m,
		echoes:   quorum.NewWitnesses[STKey](),
		echoed:   make(map[STKey]bool),
		accepted: make(map[STKey]int),
	}
}

// ID implements sim.Process.
func (n *STNode) ID() ids.ID { return n.id }

// Decided implements sim.Process (never: same contract as Algorithm 1).
func (n *STNode) Decided() bool { return false }

// Output implements sim.Process.
func (n *STNode) Output() any { return n.AcceptedKeys() }

// Accepted reports acceptance of (m, s) and its round.
func (n *STNode) Accepted(m string, s ids.ID) (int, bool) {
	r, ok := n.accepted[STKey{M: m, S: s}]
	return r, ok
}

// AcceptedKeys returns a copy of the accepted map.
func (n *STNode) AcceptedKeys() map[STKey]int {
	out := make(map[STKey]int, len(n.accepted))
	for k, v := range n.accepted {
		out[k] = v
	}
	return out
}

// Step implements sim.Process.
func (n *STNode) Step(round int, inbox []sim.Message) []sim.Send {
	var direct []STKey
	for _, msg := range inbox {
		switch p := msg.Payload.(type) {
		case STInitial:
			if msg.From == p.S {
				direct = append(direct, STKey{M: p.M, S: p.S})
			}
		case STEcho:
			n.echoes.Add(STKey{M: p.M, S: p.S}, n.idx.Of(msg.From))
		}
	}

	var out []sim.Send
	if round == 1 {
		if n.source {
			out = append(out, sim.BroadcastPayload(STInitial{M: n.m, S: n.id}))
		}
		return out
	}
	for _, k := range direct {
		if !n.echoed[k] {
			n.echoed[k] = true
			out = append(out, sim.BroadcastPayload(STEcho{M: k.M, S: k.S}))
		}
	}
	keys := n.echoes.AppendKeys(nil)
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].S != keys[j].S {
			return keys[i].S < keys[j].S
		}
		return keys[i].M < keys[j].M
	})
	for _, k := range keys {
		count := n.echoes.Count(k)
		if count >= n.f+1 && !n.echoed[k] {
			n.echoed[k] = true
			out = append(out, sim.BroadcastPayload(STEcho{M: k.M, S: k.S}))
		}
		if count >= 2*n.f+1 {
			if _, done := n.accepted[k]; !done {
				n.accepted[k] = round
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Phase-king consensus (known n, f, consecutive ids)
// ---------------------------------------------------------------------

// KInput, KPrefer, KStrong and KKing are the phase-king counterparts of
// the id-only consensus messages.
type (
	KInput struct {
		X float64
	}
	KPrefer struct {
		X float64
	}
	KStrong struct {
		X float64
	}
	KKing struct {
		X float64
	}
)

// KingNode is a phase-king consensus participant with known n and f and
// consecutive identifiers 1..n. The phase-p king is node with id p
// (wrapping), so after f+1 phases at least one king was correct.
//
// Phases mirror the id-only layout (5 rounds) with the classical
// thresholds: prefer at n−f inputs, adopt at f+1 prefers, strongprefer
// at n−f prefers, decide at n−f strongprefers, adopt the king below
// f+1 strongprefers. After deciding, a node keeps re-broadcasting its
// decision messages for one full phase (the classical early-stopping
// "help the laggards" rule) before going silent.
type KingNode struct {
	id   ids.ID
	n, f int
	xv   float64
	idx  quorum.Index // numbers the voters

	strongTally *quorum.Tally[float64]
	// Per-round scratch, reset (not reallocated) every Step; strongTally
	// and inStrongs swap in round D so the buffer survives round E.
	inInputs, inPrefers, inStrongs *quorum.Tally[float64]
	inKings                        map[ids.ID]float64
	sends                          []sim.Send // backs Step's return value, reused
	phase                          int
	decided                        bool
	helpUntil                      int  // keep participating through this phase after deciding
	helpDone                       bool // the help phase has fully elapsed
	output                         float64
	decidedRound                   int
}

// NewKing returns a phase-king node; ids must be 1..n.
func NewKing(id ids.ID, n, f int, x float64) *KingNode {
	return &KingNode{
		id: id, n: n, f: f, xv: x,
		strongTally: quorum.NewTally[float64](),
		inInputs:    quorum.NewTally[float64](),
		inPrefers:   quorum.NewTally[float64](),
		inStrongs:   quorum.NewTally[float64](),
		inKings:     make(map[ids.ID]float64),
	}
}

// ID implements sim.Process.
func (k *KingNode) ID() ids.ID { return k.id }

// Decided implements sim.Process: true once decided and the full help
// phase has elapsed (the node re-broadcasts its decision messages for
// one entire extra phase so laggards can finish — ending the help at
// the phase boundary, not at its first round, is what makes the n−f
// thresholds reachable for them).
func (k *KingNode) Decided() bool { return k.helpDone }

// HasOutput reports whether a decision was reached (possibly while
// still helping).
func (k *KingNode) HasOutput() bool { return k.decided }

// Output implements sim.Process.
func (k *KingNode) Output() any { return k.output }

// Value returns the decided value.
func (k *KingNode) Value() float64 { return k.output }

// DecidedRound returns the decision round (0 if undecided).
func (k *KingNode) DecidedRound() int { return k.decidedRound }

// Phases returns the number of phases started.
func (k *KingNode) Phases() int { return k.phase }

// kingOf returns the king of the given 1-based phase.
func (k *KingNode) kingOf(phase int) ids.ID {
	return ids.ID((phase-1)%k.n + 1)
}

// emit stores sends in the node-owned scratch backing Step's return
// value (consumed by the runner before the next Step).
func (k *KingNode) emit(sends ...sim.Send) []sim.Send {
	k.sends = append(k.sends[:0], sends...)
	return k.sends
}

// Step implements sim.Process.
func (k *KingNode) Step(round int, inbox []sim.Message) []sim.Send {
	inputs, prefers, strongs, kings := k.inInputs, k.inPrefers, k.inStrongs, k.inKings
	inputs.Reset()
	prefers.Reset()
	strongs.Reset()
	clear(kings)
	for _, msg := range inbox {
		switch p := msg.Payload.(type) {
		case KInput:
			inputs.Add(p.X, k.idx.Of(msg.From))
		case KPrefer:
			prefers.Add(p.X, k.idx.Of(msg.From))
		case KStrong:
			strongs.Add(p.X, k.idx.Of(msg.From))
		case KKing:
			if _, dup := kings[msg.From]; !dup {
				kings[msg.From] = p.X
			}
		}
	}

	pos := (round - 1) % 5
	switch pos {
	case 0: // A
		k.phase++
		if k.helpDone {
			return nil
		}
		return k.emit(sim.BroadcastPayload(KInput{X: k.xv}))
	case 1: // B
		if x, c, ok := bestFloat(inputs); ok && c >= k.n-k.f {
			return k.emit(sim.BroadcastPayload(KPrefer{X: x}))
		}
		return nil
	case 2: // C
		x, c, ok := bestFloat(prefers)
		var out []sim.Send
		if ok && c >= k.f+1 && !k.decided {
			k.xv = x
		}
		if ok && c >= k.n-k.f {
			out = k.emit(sim.BroadcastPayload(KStrong{X: x}))
		}
		return out
	case 3: // D — the phase king broadcasts; strongprefers buffered
		// Swap the filled scratch in as the buffer; the old buffer is
		// reset at the top of the next Step.
		k.strongTally, k.inStrongs = strongs, k.strongTally
		if k.kingOf(k.phase) == k.id {
			return k.emit(sim.BroadcastPayload(KKing{X: k.xv}))
		}
		return nil
	default: // E — evaluate
		x, c, ok := bestFloat(k.strongTally)
		switch {
		case k.decided:
			if k.phase >= k.helpUntil {
				k.helpDone = true
			}
		case ok && c >= k.n-k.f:
			k.decided = true
			k.output = x
			k.decidedRound = round
			k.xv = x
			k.helpUntil = k.phase + 1
		case !ok || c < k.f+1:
			if kx, got := kings[k.kingOf(k.phase)]; got {
				k.xv = kx
			}
		}
		return nil
	}
}

// ---------------------------------------------------------------------
// Dolev et al. approximate agreement (known f)
// ---------------------------------------------------------------------

// AValue is the broadcast value of the known-f approximate agreement.
type AValue struct {
	X float64
}

// ApproxNode runs one iteration per round: broadcast, then trim exactly
// f values at each extreme and take the midpoint.
type ApproxNode struct {
	id         ids.ID
	f          int
	x          float64
	iterations int
	done       int
	decided    bool
	History    []float64
}

// NewApprox returns a known-f iterated approximate agreement node.
func NewApprox(id ids.ID, f int, x float64, iterations int) *ApproxNode {
	if iterations < 1 {
		panic("baseline: NewApprox needs at least one iteration")
	}
	return &ApproxNode{id: id, f: f, x: x, iterations: iterations}
}

// ID implements sim.Process.
func (n *ApproxNode) ID() ids.ID { return n.id }

// Decided implements sim.Process.
func (n *ApproxNode) Decided() bool { return n.decided }

// Output implements sim.Process.
func (n *ApproxNode) Output() any { return n.x }

// Value returns the current value.
func (n *ApproxNode) Value() float64 { return n.x }

// Step implements sim.Process.
func (n *ApproxNode) Step(round int, inbox []sim.Message) []sim.Send {
	if round > 1 {
		seen := make(map[ids.ID]bool)
		var values []float64
		for _, msg := range inbox {
			if v, ok := msg.Payload.(AValue); ok && !seen[msg.From] {
				seen[msg.From] = true
				values = append(values, v.X)
			}
		}
		sort.Float64s(values)
		if len(values) <= 2*n.f {
			panic("baseline: not enough values to trim f at each extreme")
		}
		kept := values[n.f : len(values)-n.f]
		n.x = (kept[0] + kept[len(kept)-1]) / 2
		n.History = append(n.History, n.x)
		n.done++
		if n.done >= n.iterations {
			n.decided = true
			return nil
		}
	}
	return []sim.Send{sim.BroadcastPayload(AValue{X: n.x})}
}

func bestFloat(t *quorum.Tally[float64]) (float64, int, bool) {
	return t.BestFunc(func(a, b float64) bool { return a < b })
}
