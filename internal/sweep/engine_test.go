package sweep_test

import (
	"os"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/harness"
	"repro/internal/stats"
)

// These tests hold the sweep format to its purpose — any split of any grid
// merges to the sequential bytes — with the engine (internal/cluster) as the
// call site; they live in this package's external test package because
// cluster imports sweep.

// TestMain doubles as the worker entry point for the subprocess test: with
// SWEEP_TEST_WORKER set, the test binary behaves exactly like
// `cmd/experiments -agent -` — the agent's serve loop on stdin/stdout — and
// exits when its parent closes the pipe. This keeps the real
// spawn→request→parse→merge subprocess path under `go test` without needing
// the cmd binaries built first.
func TestMain(m *testing.M) {
	if os.Getenv("SWEEP_TEST_WORKER") == "1" {
		new(cluster.Agent).ServePipe(os.Stdin, os.Stdout)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// suite runs the whole quick suite in one Coordinator.Run and returns the
// emitted tables, failing the test on an emission out of list order.
func suite(t *testing.T, workers []*cluster.Worker) ([]*stats.Table, *cluster.Result) {
	t.Helper()
	exps := harness.All()
	tables := make([]*stats.Table, 0, len(exps))
	c := &cluster.Coordinator{Workers: workers, Quick: true}
	res, err := c.Run(exps, func(i int, table *stats.Table) {
		if i != len(tables) {
			t.Errorf("table %d (%s) emitted after %d table(s)", i, exps[i].ID, len(tables))
		}
		tables = append(tables, table)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(exps) {
		t.Fatalf("%d of %d tables emitted", len(tables), len(exps))
	}
	return tables, res
}

// sequential is every experiment's e.Run(true), evaluated once per test
// binary.
var sequential = sync.OnceValue(func() []*stats.Table {
	var tables []*stats.Table
	for _, e := range harness.All() {
		tables = append(tables, e.Run(true))
	}
	return tables
})

// TestMergeDeterminism is the acceptance property of the whole engine:
// handing the whole quick suite to one run — one queue over every
// (experiment, point) — and merging what the workers return must reproduce
// every sequential table byte-for-byte, Render and CSV alike, in suite
// order, for one worker, two, and more workers than the suite has points.
func TestMergeDeterminism(t *testing.T) {
	exps, want := harness.All(), sequential()
	points, rows := 0, 0
	for i, e := range exps {
		points += e.Grid(true).N
		rows += len(want[i].Rows)
	}
	got := map[int][]*stats.Table{}
	for _, workers := range []int{1, 2, points + 3} {
		tables, res := suite(t, cluster.InProcess(workers))
		got[workers] = tables
		var pts, rs int
		for _, st := range res.Agents {
			pts += st.Points
			rs += st.Rows
		}
		if pts != points || rs != rows {
			t.Errorf("workers=%d: stats roll-up %d points/%d rows, want %d/%d", workers, pts, rs, points, rows)
		}
	}
	for i, e := range exps {
		t.Run(e.ID, func(t *testing.T) {
			wantRender, wantCSV := want[i].Render(), want[i].CSV()
			for workers, tables := range got {
				if got := tables[i].Render(); got != wantRender {
					t.Errorf("workers=%d: merged Render differs from sequential:\n--- merged\n%s--- sequential\n%s",
						workers, got, wantRender)
				}
				if got := tables[i].CSV(); got != wantCSV {
					t.Errorf("workers=%d: merged CSV differs from sequential", workers)
				}
			}
		})
	}
}

// TestSubprocessReExec drives the real stdin/stdout transport: the
// coordinator spawns this test binary as two worker subprocesses (see
// TestMain), each started once for the whole suite, and every merged table
// must still match the sequential run byte-for-byte.
func TestSubprocessReExec(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess re-exec is not -short")
	}
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("SWEEP_TEST_WORKER", "1") // inherited by the children only
	tables, res := suite(t, cluster.Subprocesses(2, bin))
	for i, want := range sequential() {
		if got := tables[i].Render(); got != want.Render() {
			t.Errorf("%s: subprocess-merged table differs from sequential:\n--- merged\n%s--- sequential\n%s",
				harness.All()[i].ID, got, want.Render())
		}
	}
	for _, a := range res.Agents {
		if a.Failed || a.Readmitted > 0 {
			t.Errorf("worker %s failed or was re-spawned on a healthy run: %+v", a.Addr, a)
		}
	}
}
