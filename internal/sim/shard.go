// Sharded round execution: the parallel fast path behind
// Config.Workers.
//
// The synchronous model makes this safe and exact: within a round every
// process reads only its own state and the inbox snapshot taken at the
// start of the round, so the Step calls of distinct correct processes
// are independent and can run on any goroutine in any order. Everything
// order-sensitive — adversary steps (the adversary is one shared object
// across all faulty nodes), message delivery, duplicate filtering,
// observer callbacks, metrics — is replayed by StepRound in increasing
// id order exactly as the sequential schedule would, so a run with
// Workers = k is bit-identical to a run with Workers = 1.
package sim

import (
	"sync"
	"sync/atomic"
)

// stepOut is the precomputed outcome of one correct process's Step.
type stepOut[M any] struct {
	sends         []SendT[M]
	decidedBefore bool // process had decided before this round; Step not called
}

// shardSteps fans the Step calls of all correct, undecided processes in
// the node table across cfg.Workers goroutines and returns their
// outboxes indexed by slot. Faulty slots are left zero: the adversary
// is stepped sequentially by the caller, which assembles those inboxes
// itself. A worker assembles each inbox it steps in its own merge
// scratch, valid for that one Step. Work is handed out via an atomic
// counter rather than fixed chunks, so uneven per-node costs (one slow
// protocol instance) do not stall a whole shard. The result, panic and
// scratch buffers are pooled on the runner and reused every round.
func (r *TypedRunner[P, M]) shardSteps(round int) []stepOut[M] {
	nn := len(r.idvec)
	if cap(r.pre) < nn {
		r.pre = make([]stepOut[M], nn)
		r.panics = make([]any, nn)
	}
	out := r.pre[:nn]
	panics := r.panics[:nn]
	for i := range out {
		out[i] = stepOut[M]{}
		panics[i] = nil
	}
	workers := max(min(r.cfg.Workers, nn), 1)
	if len(r.merged) < workers {
		r.merged = append(r.merged, make([]laneBuf[M], workers-len(r.merged))...)
	}
	// A Step panic (the protocols panic on invariant violations) must
	// not die on a shard goroutine — an unrecovered goroutine panic
	// aborts the whole process and callers like the engine rely on
	// recovering it. Capture per-slot and re-raise the lowest-slot
	// panic on the calling goroutine, matching the sequential schedule.
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= nn {
					return
				}
				if r.faulty[i] {
					continue
				}
				func() {
					defer func() { panics[i] = recover() }()
					p := r.procs[i]
					if r.done[i] || p.Decided() {
						out[i].decidedBefore = true
						return
					}
					out[i].sends = p.StepTyped(round, r.inbox(i, w))
				}()
			}
		}()
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
	return out
}
