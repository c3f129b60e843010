// Package faults is the fault-injection chaos plane: named failpoints
// that production code checks at its crash-critical moments and that
// tests (or a -faults flag) arm with error, latency, torn-write, or
// crash actions — the errfs pattern, without a filesystem dependency.
//
// A failpoint is just a string name. Production code holds a *Set
// (usually nil) and calls Check(point) before the operation the point
// names; the file wrapper in file.go does this for every file
// operation of a wrapped *os.File. A nil *Set is valid and free — the
// disabled cost is one nil check — so the plane needs no build tags.
//
// Actions:
//
//	err       the check returns ErrInjected (wrapped with the point name)
//	crash     the check panics with a Crash value: the in-process stand-in
//	          for kill -9 at exactly that instruction — callers must not
//	          run disk-mutating cleanup on the way out, so the on-disk
//	          state a test recovers from is the state a real crash leaves
//	torn      (file wrapper writes only) half the buffer is written, then
//	          the wrapper panics with a Crash — a torn record mid-append
//	sleep     the check blocks for the configured delay, then proceeds —
//	          the window a chaos harness kill -9s a real process inside
//
// Rules can be deferred (`After: n` skips the first n hits) and every
// hit is counted whether or not a rule fires, so tests can assert how
// often a path ran (e.g. how many fsyncs a group commit coalesced).
package faults

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the sentinel every err-action failure wraps.
var ErrInjected = errors.New("injected fault")

// Crash is the panic value of a crash-action failpoint. Tests recover
// it (see AsCrash) and then treat the process as dead: reopen state
// from disk, never reuse the crashed object.
type Crash struct {
	Point string
}

func (c Crash) Error() string { return "faults: crash injected at " + c.Point }

// AsCrash reports whether a recovered panic value is an injected crash.
func AsCrash(v any) (Crash, bool) {
	c, ok := v.(Crash)
	return c, ok
}

// Action is what an armed failpoint does when it fires.
type Action int

const (
	// ActError makes Check return ErrInjected.
	ActError Action = iota
	// ActCrash makes Check panic with a Crash.
	ActCrash
	// ActSleep makes Check block for Rule.Delay — or, when Rule.Until is
	// set, until that channel is closed — then succeed.
	ActSleep
	// ActTorn is only meaningful on a file wrapper's write points:
	// half the buffer lands, then the wrapper panics with a Crash.
	ActTorn
)

func (a Action) String() string {
	switch a {
	case ActError:
		return "err"
	case ActCrash:
		return "crash"
	case ActSleep:
		return "sleep"
	default:
		return "torn"
	}
}

// Rule arms one failpoint.
type Rule struct {
	Point  string
	Action Action
	After  int           // skip the first After hits before firing
	Times  int           // fire at most Times times; 0 means every hit
	Delay  time.Duration // ActSleep only
	// Until, for ActSleep, replaces the delay by an event: the check
	// blocks until the channel is closed, so a test can hold a goroutine
	// at the point for exactly as long as another one needs.
	Until <-chan struct{}
}

// sleep blocks the way an ActSleep rule says.
func (r *Rule) sleep() {
	if r.Until != nil {
		<-r.Until
		return
	}
	time.Sleep(r.Delay)
}

type ruleState struct {
	Rule
	fired int
}

// Set is a collection of armed failpoints plus the hit counters for
// every point ever checked. All methods are safe for concurrent use
// and safe on a nil *Set (where they do nothing and report zero hits).
type Set struct {
	mu    sync.Mutex
	rules map[string][]*ruleState
	hits  map[string]int
}

// New returns an empty, armed-with-nothing Set.
func New() *Set {
	return &Set{rules: map[string][]*ruleState{}, hits: map[string]int{}}
}

// Add arms one rule. Multiple rules on one point are consulted in the
// order added; the first that fires wins the hit.
func (s *Set) Add(r Rule) *Set {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.rules[r.Point] = append(s.rules[r.Point], &ruleState{Rule: r})
	s.mu.Unlock()
	return s
}

// Fail arms point to return ErrInjected on every hit.
func (s *Set) Fail(point string) *Set { return s.Add(Rule{Point: point, Action: ActError}) }

// CrashAt arms point to panic with a Crash on every hit.
func (s *Set) CrashAt(point string) *Set { return s.Add(Rule{Point: point, Action: ActCrash}) }

// Sleep arms point to block for d on every hit.
func (s *Set) Sleep(point string, d time.Duration) *Set {
	return s.Add(Rule{Point: point, Action: ActSleep, Delay: d})
}

// Hits returns how many times point was checked, fired or not.
func (s *Set) Hits(point string) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits[point]
}

// trigger counts one hit and returns the rule that fires, if any.
func (s *Set) trigger(point string) *Rule {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.hits[point]
	s.hits[point] = n + 1
	for _, r := range s.rules[point] {
		if n < r.After {
			continue
		}
		if r.Times > 0 && r.fired >= r.Times {
			continue
		}
		r.fired++
		return &r.Rule
	}
	return nil
}

// Check is the failpoint: production code calls it immediately before
// the operation the point names. It returns nil (possibly after an
// injected delay), returns an error wrapping ErrInjected, or panics
// with a Crash — per the armed rule. Nil-safe.
func (s *Set) Check(point string) error {
	r := s.trigger(point)
	if r == nil {
		return nil
	}
	switch r.Action {
	case ActError:
		return fmt.Errorf("faults: at %s: %w", point, ErrInjected)
	case ActCrash, ActTorn:
		panic(Crash{Point: point})
	case ActSleep:
		r.sleep()
	}
	return nil
}

// Points returns every armed point name, sorted — the -faults flag's
// echo in logs.
func (s *Set) Points() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.rules))
	for p := range s.rules {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Parse builds a Set from a CLI spec: comma-separated rules of the form
//
//	point=action           point[@skip]=err|crash|torn
//	point=sleep:duration   e.g. store_sync_gate=sleep:10s
//
// An empty spec returns nil (no injection at all).
func Parse(spec string) (*Set, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	s := New()
	for _, part := range strings.Split(spec, ",") {
		point, act, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || point == "" {
			return nil, fmt.Errorf("faults: rule %q is not point=action", part)
		}
		r := Rule{Point: point}
		if p, skip, ok := strings.Cut(point, "@"); ok {
			n, err := strconv.Atoi(skip)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("faults: bad skip count in %q", part)
			}
			r.Point, r.After = p, n
		}
		switch {
		case act == "err":
			r.Action = ActError
		case act == "crash":
			r.Action = ActCrash
		case act == "torn":
			r.Action = ActTorn
		case strings.HasPrefix(act, "sleep:"):
			d, err := time.ParseDuration(strings.TrimPrefix(act, "sleep:"))
			if err != nil || d < 0 {
				return nil, fmt.Errorf("faults: bad sleep duration in %q", part)
			}
			r.Action, r.Delay = ActSleep, d
		default:
			return nil, fmt.Errorf("faults: unknown action %q (want err, crash, torn or sleep:<dur>)", act)
		}
		s.Add(r)
	}
	return s, nil
}
