package rotor

import (
	"testing"

	"idonly/internal/ids"
)

// TestResetForgetsCandidates: what a forger names lives one execution.
// A core that numbered thousands of forged candidates over a life numbers
// none after Reset, and the next life numbers only its own.
func TestResetForgetsCandidates(t *testing.T) {
	c := NewCore(1)
	for life := range 5 {
		for p := range 2000 {
			c.AbsorbEcho(int32(p%7), ids.ID(1<<40+life*2000+p))
		}
		c.AbsorbInit(3)
		c.Advance(7)
		if got := c.idx.Len(); got != 2001 {
			t.Fatalf("life %d numbers %d candidates, want its own 2001", life, got)
		}
		c.Reset(1)
		if got := c.idx.Len(); got != 0 {
			t.Fatalf("life %d: Reset leaves %d candidates numbered", life, got)
		}
	}
}
