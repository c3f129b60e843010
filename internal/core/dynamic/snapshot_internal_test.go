package dynamic

import (
	"slices"
	"testing"

	"idonly/internal/ids"
	"idonly/internal/sim"
)

// TestSessionSnapshotIsolation: a correct joiner enters S between the
// starts of sessions 1 and 2, so the two sessions run at once with
// different snapshots. Each round of their init windows every founder
// and the joiner send under both tags. Session 1 must drop the joiner
// and session 2 admit it, and a later session under the same S must
// share session 2's snapshot. The node numbers each peer once.
func TestSessionSnapshotIsolation(t *testing.T) {
	all := ids.Sparse(ids.NewRand(21), 5)
	founders, joiner := all[:4], all[4]
	self := founders[0]
	nd := New(Config{ID: self, Founders: founders})

	both := func(tags ...int) []sim.MsgT[Wire] {
		var inbox []sim.MsgT[Wire]
		for _, from := range ids.SortIDs(slices.Clone(all)) {
			for _, tag := range tags {
				// Session noise: the machine admits the sender, nothing more.
				inbox = append(inbox, sim.MsgT[Wire]{From: from, Payload: Wire{Kind: wNoise, R: tag}})
			}
		}
		return inbox
	}
	nd.StepTyped(1, nil) // session 1 starts under the founders
	nd.StepTyped(2, []sim.MsgT[Wire]{{From: joiner, Payload: Wire{Kind: wPresent}}})
	if !slices.Contains(nd.Members(), joiner) {
		t.Fatalf("the joiner is not in S after its present: %v", nd.Members())
	}
	nd.StepTyped(3, both(1, 2)) // session 1 freezes
	nd.StepTyped(4, both(1, 2)) // session 2 freezes

	if len(nd.sessions) != 4 {
		t.Fatalf("%d sessions live, want 4", len(nd.sessions))
	}
	s1, s2, s3 := nd.sessions[0], nd.sessions[1], nd.sessions[2]
	if got := s1.machine.NV(); got != len(founders) {
		t.Fatalf("session 1 counts %d senders, want the %d founders: the joiner must be dropped", got, len(founders))
	}
	if got := s2.machine.NV(); got != len(all) {
		t.Fatalf("session 2 counts %d senders, want %d: the joiner must be admitted", got, len(all))
	}
	if s1.members == s2.members || s1.members.Len() != len(founders) {
		t.Fatalf("session 1's snapshot holds %d ids and is shared with session 2: %v", s1.members.Len(), s1.members == s2.members)
	}
	if s2.members != s3.members {
		t.Fatal("sessions 2 and 3 started under the same S but hold different snapshots")
	}
	if nd.idx.Len() != len(all) {
		t.Fatalf("the node numbers %d ids, want %d", nd.idx.Len(), len(all))
	}
}
