package sweep_test

import (
	"os"
	"testing"

	"repro/internal/cluster"
	"repro/internal/harness"
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

// TestMergeDeterminism is the acceptance property of the whole engine:
// splitting any experiment's quick grid across workers and merging what
// they return must reproduce the sequential table byte-for-byte — Render
// and CSV alike — for the degenerate 1-worker split, an even split, and a
// split with more workers than points.
func TestMergeDeterminism(t *testing.T) {
	for _, e := range harness.All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			want := e.Run(true)
			wantRender, wantCSV := want.Render(), want.CSV()
			n := e.Grid(true).N
			for _, workers := range []int{1, 2, n + 3} {
				c := &cluster.Coordinator{Workers: cluster.InProcess(workers), Quick: true}
				res, err := c.Run(e)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got := res.Table.Render(); got != wantRender {
					t.Errorf("workers=%d: merged Render differs from sequential:\n--- merged\n%s--- sequential\n%s",
						workers, got, wantRender)
				}
				if got := res.Table.CSV(); got != wantCSV {
					t.Errorf("workers=%d: merged CSV differs from sequential", workers)
				}
				var pts, rows int
				for _, st := range res.Agents {
					pts += st.Points
					rows += st.Rows
				}
				if pts != n || rows != len(want.Rows) {
					t.Errorf("workers=%d: stats roll-up %d points/%d rows, want %d/%d",
						workers, pts, rows, n, len(want.Rows))
				}
			}
		})
	}
}

// TestSubprocessReExec drives the real stdin/stdout transport: the
// coordinator spawns this test binary as worker subprocesses (see TestMain)
// and the merged result must still match the sequential run byte-for-byte,
// with the subprocesses reused from one experiment to the next.
func TestSubprocessReExec(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess re-exec is not -short")
	}
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("SWEEP_TEST_WORKER", "1") // inherited by the children only
	c := &cluster.Coordinator{Workers: cluster.Subprocesses(2, bin), Quick: true}
	defer c.Close()
	for _, id := range []string{"T1", "F3", "S1"} {
		e := harness.ByID(id)
		want := e.Run(true).Render()
		res, err := c.Run(e)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got := res.Table.Render(); got != want {
			t.Errorf("%s: subprocess-merged table differs from sequential:\n--- merged\n%s--- sequential\n%s",
				id, got, want)
		}
		for _, a := range res.Agents {
			if a.Failed || a.Readmitted > 0 {
				t.Errorf("%s: worker %s failed or was re-spawned on a healthy run: %+v", id, a.Addr, a)
			}
		}
	}
}
