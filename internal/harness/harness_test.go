package harness

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"T1", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10", "F11", "F12", "F13", "E1", "E2", "E3", "S1", "A1", "A2"}
	for _, id := range want {
		if ByID(id) == nil {
			t.Errorf("experiment %s not registered", id)
		}
	}
	all := All()
	if len(all) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(all), len(want))
	}
	// Sorted order puts T1 first and the ablations last.
	if all[0].ID != "T1" || all[len(all)-1].ID != "A2" {
		t.Errorf("ordering: first=%s last=%s", all[0].ID, all[len(all)-1].ID)
	}
	for _, e := range all {
		if e.Title == "" || e.Expect == "" || e.Grid == nil || e.Check == nil {
			t.Errorf("experiment %s incompletely defined", e.ID)
		}
		g := e.Grid(true)
		if g.Table == nil || g.N < 1 || g.Point == nil {
			t.Errorf("experiment %s grid incompletely defined", e.ID)
		}
		if len(g.Table.Rows) != 0 {
			t.Errorf("experiment %s grid skeleton already has rows", e.ID)
		}
	}
}

// TestQuickClaimsHold runs every quick grid once and holds each table to its
// experiment's claim.
func TestQuickClaimsHold(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			tb := e.Run(true)
			for _, fail := range e.Check(tb) {
				t.Error(fail)
			}
			if t.Failed() {
				t.Log("\n" + tb.Render())
			}
		})
	}
}

// TestClaimsFailOnMalformedTables: a table with no rows, or whose cells are
// neither keys nor numbers, fails every experiment's claim without a panic.
func TestClaimsFailOnMalformedTables(t *testing.T) {
	for _, e := range All() {
		tb := e.Grid(true).Table
		if len(e.Check(tb)) == 0 {
			t.Errorf("%s: a table with no rows holds", e.ID)
		}
		tb.AddRow(make([]string, len(tb.Columns))...)
		tb.AddRow("x")
		if len(e.Check(tb)) == 0 {
			t.Errorf("%s: a table of empty and short rows holds", e.ID)
		}
	}
}

// TestReadmeIndex holds README.md's experiment index to the registry: one
// row per experiment, its ID, Title and Expect.
func TestReadmeIndex(t *testing.T) {
	doc, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("| ID | Title | Expected shape |\n|---|---|---|\n")
	for _, e := range All() {
		fmt.Fprintf(&b, "| %s | %s | %s |\n", e.ID, e.Title, e.Expect)
	}
	if !strings.Contains(string(doc), b.String()) {
		t.Errorf("README.md's experiment index is not the registry's; it reads:\n%s", b.String())
	}
}

func TestTablesRenderAndCSV(t *testing.T) {
	for _, e := range []string{"T1", "S1"} {
		tb := ByID(e).Run(true)
		if !strings.Contains(tb.Render(), tb.Title) {
			t.Errorf("%s render missing title", e)
		}
		if len(strings.Split(tb.CSV(), "\n")) < len(tb.Rows)+1 {
			t.Errorf("%s CSV too short", e)
		}
	}
}

func TestCostHints(t *testing.T) {
	// The E family's grids are heavily skewed, which is exactly what the
	// Cost hints exist for: costs must be positive and strictly increasing
	// with density so work stealing can balance workers.
	g := ByID("E1").Grid(true)
	costs := g.Costs()
	if len(costs) != g.N {
		t.Fatalf("Costs returned %d entries for %d points", len(costs), g.N)
	}
	for i := 1; i < len(costs); i++ {
		if costs[i] <= costs[i-1] || costs[i-1] <= 0 {
			t.Fatalf("E1 cost hints not increasing: %v", costs)
		}
	}
	// A grid without hints reports uniform unit cost.
	uniform := &Grid{N: 3}
	if uniform.PointCost(1) != 1 {
		t.Fatalf("hintless PointCost = %v, want 1", uniform.PointCost(1))
	}
}
