package experiments_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"strings"
	"testing"

	"idonly/internal/experiments"
)

// tableSHA256 pins each experiment's rendered tables at seed 1: the
// SHA-256 of every table's Fprint output, in order. The experiments
// build their own runners and scenarios, so this is the one pin on what
// they simulate; a change that moves any of these bytes moves a result.
var tableSHA256 = map[string]string{
	"E1":  "11d01e462ec4d9db1b2be3f266c6bcf6e6de96d51bec62e79f8d1135b79f5f14",
	"E2":  "21d8db6a0e52c858410c1f260ae6edf1db70b4dd4d8e0de53e2d67f90aa25df7",
	"E3":  "11946c3aec97c6f0d57f3c0a051af54835d087d6b9b2a06012094f74cd99394f",
	"E4":  "e27930eb48d11c74ceab7decf3a96b0dd227f3db93efd7f4dfc858640b628e1b",
	"E5":  "65b932f71d6fa1cb5230ffd6141715e20dae03e5ec4f21b9f9157286d7789a65",
	"E6":  "8509ff0da93245f6b5edbd93b778a83ebf9f98dc68fc674f0aeddec66703c0f9",
	"E7":  "60673d3f873f82193635efcf20e3cd2f2e2c85dcf1adb54a20e9d4911ba0489b",
	"E8":  "8ce9956428a8cd86a382daa30641509d03a7e348cb87409aa9fc57b069825cd3",
	"E9":  "ae81b161bf8d09bf19d752265cee46f088bb73a329b8c80d6241b003f0ad9aaf",
	"E10": "37cc7a97856e9cf43aeea4c66d9cbf37f471791862f4346c95462d64dc7a006e",
}

// TestAllExperimentsRun executes every experiment end to end (small,
// seeded) and checks structural sanity — tables render, every row has
// the full column count, and nothing panics — and the rendered bytes
// against tableSHA256. Individual experiments' semantic assertions
// follow below.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow; skipped with -short")
	}
	for _, exp := range experiments.All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			tables := exp.Run(1)
			if len(tables) == 0 {
				t.Fatalf("%s produced no tables", exp.ID)
			}
			h := sha256.New()
			for _, tb := range tables {
				if len(tb.Rows) == 0 {
					t.Fatalf("%s table %q has no rows", exp.ID, tb.Title)
				}
				for _, row := range tb.Rows {
					if len(row) != len(tb.Columns) {
						t.Fatalf("%s: row %v vs columns %v", exp.ID, row, tb.Columns)
					}
				}
				var buf bytes.Buffer
				tb.Fprint(&buf)
				if !strings.Contains(buf.String(), tb.ID) {
					t.Fatalf("%s: rendering lost the id", exp.ID)
				}
				h.Write(buf.Bytes())
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tableSHA256[exp.ID] {
				t.Errorf("%s tables at seed 1: sha256 %s, pinned %s", exp.ID, got, tableSHA256[exp.ID])
			}
		})
	}
}

func cell(t *testing.T, tb experiments.Table, row, col int) string {
	t.Helper()
	if row >= len(tb.Rows) || col >= len(tb.Columns) {
		t.Fatalf("cell (%d,%d) out of range in %s", row, col, tb.ID)
	}
	return tb.Rows[row][col]
}

func cellInt(t *testing.T, tb experiments.Table, row, col int) int {
	t.Helper()
	v, err := strconv.Atoi(cell(t, tb, row, col))
	if err != nil {
		t.Fatalf("cell (%d,%d) of %s is not an int: %q", row, col, tb.ID, cell(t, tb, row, col))
	}
	return v
}

func TestE1AcceptanceRoundsAreThree(t *testing.T) {
	tb := experiments.E1(1)[0]
	for r := range tb.Rows {
		if cellInt(t, tb, r, 2) != 3 || cellInt(t, tb, r, 3) != 3 {
			t.Fatalf("row %d: acceptance rounds %s / %s, want 3 / 3",
				r, cell(t, tb, r, 2), cell(t, tb, r, 3))
		}
	}
}

func TestE2BoundaryIsSharp(t *testing.T) {
	tb := experiments.E2(1)[0]
	for r := range tb.Rows {
		seeds := cellInt(t, tb, r, 3)
		if got := cellInt(t, tb, r, 1); got != 0 {
			t.Fatalf("f=%s: %d violations at n=3f+1, want 0", cell(t, tb, r, 0), got)
		}
		if got := cellInt(t, tb, r, 2); got != seeds {
			t.Fatalf("f=%s: %d violations at n=3f, want all %d", cell(t, tb, r, 0), got, seeds)
		}
	}
}

func TestE3TerminationWithinBoundAndAlwaysGood(t *testing.T) {
	tb := experiments.E3(1)[0]
	for r := range tb.Rows {
		if cellInt(t, tb, r, 2) > cellInt(t, tb, r, 3) {
			t.Fatalf("row %d: termination %s exceeds bound %s", r, cell(t, tb, r, 2), cell(t, tb, r, 3))
		}
		if cellInt(t, tb, r, 4) != cellInt(t, tb, r, 5) {
			t.Fatalf("row %d: good rounds %s of %s", r, cell(t, tb, r, 4), cell(t, tb, r, 5))
		}
	}
}

func TestE4UnanimousIsOnePhase(t *testing.T) {
	tb := experiments.E4(1)[0]
	for r := range tb.Rows {
		if cellInt(t, tb, r, 2) != 7 {
			t.Fatalf("row %d: unanimous rounds %s, want 7 (2 init + 5 phase)", r, cell(t, tb, r, 2))
		}
	}
}

func TestE10SubstitutionAblationLivelocks(t *testing.T) {
	tables := experiments.E10(1)
	a := tables[0]
	// row 0 = with substitution: all correct decided
	if cellInt(t, a, 0, 1) != cellInt(t, a, 0, 2) {
		t.Fatalf("with substitution: %s of %s decided", cell(t, a, 0, 1), cell(t, a, 0, 2))
	}
	// row 1 = ablated: strictly fewer decided and the cap was hit
	if cellInt(t, a, 1, 1) >= cellInt(t, a, 1, 2) {
		t.Fatalf("ablation had no effect: %s of %s decided", cell(t, a, 1, 1), cell(t, a, 1, 2))
	}
	if cellInt(t, a, 1, 3) != cellInt(t, a, 1, 4) {
		t.Fatalf("ablated run terminated before the cap: %s vs %s", cell(t, a, 1, 3), cell(t, a, 1, 4))
	}
}

func TestE7PartitionAlwaysSplits(t *testing.T) {
	tables := experiments.E7(1)
	a := tables[0]
	last := len(a.Rows) - 1 // "partition, cross = ∞"
	if cellInt(t, a, last, 2) != cellInt(t, a, last, 1) {
		t.Fatalf("partition split %s of %s runs, want all", cell(t, a, last, 2), cell(t, a, last, 1))
	}
	// narrow band: zero disagreements
	if cellInt(t, a, 0, 2) != 0 {
		t.Fatalf("narrow band disagreed %s times", cell(t, a, 0, 2))
	}
	b := tables[1]
	// Δ below horizon → all agree; far above → all disagree
	if cellInt(t, b, 0, 3) != 0 {
		t.Fatalf("Δ=0.5 disagreed")
	}
	lastB := len(b.Rows) - 1
	if cellInt(t, b, lastB, 2) != 0 {
		t.Fatalf("Δ=100 agreed")
	}
}

func TestE9NoPrefixViolationsNoHarvestGaps(t *testing.T) {
	tb := experiments.E9(1)[0]
	for r := range tb.Rows {
		if cellInt(t, tb, r, 3) != 0 {
			t.Fatalf("row %d: %s prefix violations", r, cell(t, tb, r, 3))
		}
		if cellInt(t, tb, r, 6) != 0 {
			t.Fatalf("row %d: %s harvest gaps", r, cell(t, tb, r, 6))
		}
	}
}

func TestTablesDeterministic(t *testing.T) {
	a := experiments.E4(3)
	b := experiments.E4(3)
	var ba, bb bytes.Buffer
	for i := range a {
		a[i].Fprint(&ba)
		b[i].Fprint(&bb)
	}
	if ba.String() != bb.String() {
		t.Fatal("experiment output not deterministic for equal seeds")
	}
}
