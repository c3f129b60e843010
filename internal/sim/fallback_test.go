package sim_test

// Fallback-path goldens: a payload type that does not implement
// sim.SortKeyer must sort and deduplicate exactly as the original
// fmt.Sprint-keyed delivery path did. The digests below were generated
// before the typed sort-key fast path existed, so they pin the
// pre-change schedule; the workload deliberately mixes
//
//   - two distinct unregistered types whose fmt.Sprint renderings
//     collide ("{3}" from both) sent by the same node in the same round
//     — they must both deliver (dedup is by payload identity, never by
//     rendered bytes alone);
//   - a registered payload (rotor.Echo) colliding with an unregistered
//     one on rendered bytes — same requirement across the fast/fallback
//     boundary;
//   - exact duplicates within a round — dropped, as always;
//   - a Replay adversary re-broadcasting the unregistered payloads.

import (
	"fmt"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"idonly/internal/adversary"
	"idonly/internal/core/rotor"
	"idonly/internal/ids"
	"idonly/internal/sim"
)

// uPing and uPong are distinct types with identical fmt.Sprint
// renderings. Neither implements sim.SortKeyer.
type uPing struct{ K int }
type uPong struct{ K int }

// uBlob exercises string fields (spaces included) through the fallback
// key path.
type uBlob struct {
	A string
	B int
}

// fallbackProc broadcasts colliding and duplicate unregistered payloads
// plus one registered payload whose rendering collides with uPing's.
type fallbackProc struct {
	id    ids.ID
	peers []ids.ID
	round int
}

func (p *fallbackProc) ID() ids.ID    { return p.id }
func (p *fallbackProc) Decided() bool { return false }
func (p *fallbackProc) Output() any   { return p.round }

func (p *fallbackProc) Step(round int, inbox []sim.Message) []sim.Send {
	p.round = round
	k := round % 4
	out := []sim.Send{
		sim.BroadcastPayload(uPing{K: k}),
		sim.BroadcastPayload(uPong{K: k}),              // same bytes as uPing{k}, different type
		sim.BroadcastPayload(uPing{K: k}),              // exact duplicate: dropped per recipient
		sim.BroadcastPayload(rotor.Echo{P: ids.ID(k)}), // registered type, same "{k}" bytes
	}
	if len(p.peers) > 0 {
		to := p.peers[round%len(p.peers)]
		out = append(out, sim.Unicast(to, uBlob{A: fmt.Sprintf("b %d", k), B: int(p.id % 7)}))
	}
	return out
}

func fallbackSystem() system {
	rng := ids.NewRand(123)
	all := ids.Sparse(rng, 9)
	correct := all[:7]
	procs := make([]sim.Process, 0, len(correct))
	for _, id := range correct {
		procs = append(procs, &fallbackProc{id: id, peers: all})
	}
	return system{procs: procs, faulty: all[7:], adv: adversary.Replay{}}
}

// goldenFallback pins the unregistered-payload schedule generated with
// the pre-SortKeyer delivery path; a run must reproduce it bit for bit.
const goldenFallback = "9ff3fd3790ee07d3"

// TestNoReflectImport keeps the simulator reflection-free. The hot
// path's runtime gate is TestSteadyRoundAllocs, which fails on an fmt
// call or an any box that allocates, but a reflect call need not
// allocate — reflect.TypeOf(m).Name() on the per-send path costs none —
// so no non-test file here may import reflect.
func TestNoReflectImport(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"reflect"` {
				t.Errorf("%s imports reflect; the simulator is reflection-free", name)
			}
		}
	}
}

func TestFallbackUnregisteredSchedule(t *testing.T) {
	for _, workers := range workerCounts {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for i, got := range digestRuns(workload{"fallback", 10, false, fallbackSystem, nil, false}, workers, boxed) {
				if got != goldenFallback {
					t.Fatalf("fallback schedule changed in copy %d: digest %s, golden %s", i, got, goldenFallback)
				}
			}
		})
	}
}
