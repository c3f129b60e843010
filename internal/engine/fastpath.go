package engine

// Fast-path eligibility: when a scenario runs on the simulator core
// instantiated over its protocol's wire union (sim.NewTypedRunner)
// instead of over boxed payloads (sim.NewRunner).
//
// Both are the same round loop (sim/generic.go); the wire-union
// instantiation carries one concrete message type per protocol, with no
// box per payload and a stenciled delivery plane, so it panics on an
// adversary payload outside that union. The predicate below admits
// exactly the adversaries that stay inside every union; the chaos
// fuzzer does not, and its scenarios run boxed. Whether a protocol has
// a union at all is its builder's own property (buildProtocol:
// unionRun for rbroadcast, consensus, ring, parallel and dynamic, whose
// session tag carries parallel's payload unboxed; boxedRun for rotor
// and approx, which run boxed whatever this says). Membership churn is
// the core's own, and the builder schedules the correct joiners on
// either plane, so churned cells are eligible like static ones. Under
// a blind adversary (sim.Blind: silent, and the split attacks of
// rbroadcast and dynamic) the faulty slots keep no inbox, so nothing is
// boxed for them either. Selection never changes a result: the
// golden-trace tests (internal/sim) and the sweep matrix's no-fast-path
// column (TestSweepStrategies) pin the two instantiations byte-equal,
// which is why NoFastPath is excluded from the canonical report.

// fastPath reports whether the (defaults-resolved) scenario may run on
// its protocol's wire union, if the protocol has one.
func (s Scenario) fastPath() bool {
	if s.NoFastPath {
		return false
	}
	switch s.Adversary {
	case AdvNone, AdvSilent, AdvSplit, AdvReplay:
		// Silent sends nothing; Replay re-sends received wire values;
		// the split attacks emit protocol payloads (RBForgeSource,
		// ConsSplit, ParaSplit, DynEquivEvent) — all inside the wire
		// unions. Chaos fuzzes with arbitrary junk types a wire union
		// cannot carry.
		return true
	}
	return false
}
