package store

import "idonly/internal/engine"

// flight is one in-flight computation of a scenario digest. The leader
// (whoever published the flight) computes, fills res/ok, and closes
// done; everyone else who asked for the same digest while it flew
// waits on done instead of recomputing. ok=false means the leader
// abandoned the flight (it errored or panicked before fulfilling) and
// the follower must fall back to computing locally — a flight is a
// fast path, never a correctness dependency.
type flight struct {
	done chan struct{}
	res  engine.Result
	ok   bool
}

// beginFlight registers interest in a digest's computation. The first
// caller becomes the leader (leader=true) and MUST eventually call
// finishFlight exactly once — abandoning a flight without finishing it
// would strand every follower forever. Later callers get the existing
// flight and leader=false.
func (s *Store) beginFlight(digest string) (*flight, bool) {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	if f, ok := s.flights[digest]; ok {
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	s.flights[digest] = f
	return f, true
}

// finishFlight publishes the leader's result (ok=true) or abandonment
// (ok=false) and wakes every follower. An abandoned flight is
// deregistered at once, so the next caller leads a fresh one. A
// fulfilled flight stays registered — late callers coalesce onto its
// result — until the leader calls dropFlight, which it does on its way
// out of CachedRunAll, after the result became durable in the store:
// whoever wins a lead after that finds the record by probing the store
// again.
func (s *Store) finishFlight(digest string, f *flight, res engine.Result, ok bool) {
	f.res, f.ok = res, ok
	if !ok {
		s.dropFlight(digest, f)
	}
	close(f.done)
}

// dropFlight deregisters f; dropping a flight twice is harmless.
func (s *Store) dropFlight(digest string, f *flight) {
	s.fmu.Lock()
	if s.flights[digest] == f {
		delete(s.flights, digest)
	}
	s.fmu.Unlock()
}
