package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster/faultnet"
	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// TestMain doubles as the coordinator entry point for the kill/resume
// subprocess tests: when CLUSTER_COORD_CHILD is set, the test binary runs a
// checkpointed local-only run of one experiment or the whole suite and
// exits — a stand-in for `experiments -checkpoint` that the parent test can
// kill mid-run and restart against the same journal. With CLUSTER_TEST_WORKER set it is a
// subprocess worker instead, a stand-in for `experiments -agent -`.
func TestMain(m *testing.M) {
	if os.Getenv("CLUSTER_COORD_CHILD") == "1" {
		runCoordChild()
		os.Exit(0)
	}
	if mode := os.Getenv("CLUSTER_TEST_WORKER"); mode != "" {
		runWorkerChild(mode)
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runWorkerChild serves the wire protocol on stdin/stdout. The first child
// to create the CLUSTER_TEST_WORKER_DIE_ONCE marker file instead waits for
// its first chunk request and SIGKILLs itself holding it; in mode "hang" a
// child never answers anything.
func runWorkerChild(mode string) {
	if mode == "hang" {
		time.Sleep(time.Hour)
	}
	if marker := os.Getenv("CLUSTER_TEST_WORKER_DIE_ONCE"); marker != "" {
		if f, err := os.OpenFile(marker, os.O_CREATE|os.O_EXCL, 0o644); err == nil {
			f.Close()
			bufio.NewReader(os.Stdin).ReadString('\n')
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
		}
	}
	new(Agent).ServePipe(os.Stdin, os.Stdout)
}

// childExps resolves CLUSTER_CHILD_EXP: one experiment id, or "" for the
// whole suite.
func childExps(id string) []*harness.Experiment {
	if id == "" {
		return harness.All()
	}
	return []*harness.Experiment{harness.ByID(id)}
}

// csvBlock is what runCoordChild prints per table.
func csvBlock(e *harness.Experiment, table *stats.Table) string {
	return fmt.Sprintf("# %s\n%s", e.ID, table.CSV())
}

func runCoordChild() {
	exps := childExps(os.Getenv("CLUSTER_CHILD_EXP"))
	step, _ := time.ParseDuration(os.Getenv("CLUSTER_CHILD_STEP"))
	c := &Coordinator{
		Workers:        InProcess(1),
		Quick:          true,
		CheckpointPath: os.Getenv("CLUSTER_CHILD_CKPT"),
		stepDelay:      step,
	}
	res, err := c.Run(exps, func(i int, table *stats.Table) {
		fmt.Print(csvBlock(exps[i], table))
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "resumed=%d evaluated=%d\n", res.Resumed, res.Agents[0].Points)
}

// The acceptance property for durability: a coordinator process killed
// mid-run and restarted against the same -checkpoint journal produces
// output byte-identical to the uninterrupted sequential run — and actually
// resumes: the second run evaluates only the points the journal lacks.
func TestCoordinatorKilledAndResumedByteIdentical(t *testing.T) {
	killAndResume(t, "T1", 1)
}

// The same for the whole suite in one journal, killed once the first
// experiment is complete and the second under way: the resumed run emits
// every table, the journaled ones without evaluating anything.
func TestSuiteKilledAndResumedByteIdentical(t *testing.T) {
	killAndResume(t, "", harness.All()[0].Grid(true).N+1)
}

// killAndResume runs the coordinator child over childExps(id), kills it
// once the journal holds killAt records, and resumes it.
func killAndResume(t *testing.T, id string, killAt int) {
	if testing.Short() {
		t.Skip("subprocess re-exec test")
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	exps := childExps(id)
	wantCSV, points, grids := "", 0, map[string]int{}
	for _, e := range exps {
		wantCSV += csvBlock(e, e.Run(true))
		points += e.Grid(true).N
		grids[e.ID] = e.Grid(true).N
	}
	// journaled counts the points the journal holds complete records of
	// (one record per point).
	journaled := func(data []byte) int {
		done, _, err := sweep.ParseCheckpoint(data, true, grids)
		if err != nil {
			t.Fatalf("journal: %v", err)
		}
		n := 0
		for _, pts := range done {
			n += len(pts)
		}
		return n
	}
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")

	env := append(os.Environ(),
		"CLUSTER_COORD_CHILD=1",
		"CLUSTER_CHILD_EXP="+id,
		"CLUSTER_CHILD_CKPT="+ckpt,
	)

	// Run 1: throttled so the run cannot finish before the kill, killed as
	// soon as the journal holds killAt records.
	first := exec.Command(self, "-test.run=TestMain")
	first.Env = append(env, "CLUSTER_CHILD_STEP=100ms")
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		data, _ := os.ReadFile(ckpt)
		if journaled(data) >= killAt {
			break
		}
		if time.Now().After(deadline) {
			first.Process.Kill()
			first.Wait()
			t.Fatalf("checkpoint never gained %d record(s)", killAt)
		}
		time.Sleep(10 * time.Millisecond)
	}
	first.Process.Kill()
	first.Wait()

	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	records := journaled(data)
	if records >= points {
		t.Skipf("child finished all %d points before the kill landed; nothing left to resume", records)
	}

	// Run 2: full speed against the same journal, to completion.
	var out, errOut bytes.Buffer
	second := exec.Command(self, "-test.run=TestMain")
	second.Env = append(env, "CLUSTER_CHILD_STEP=0")
	second.Stdout, second.Stderr = &out, &errOut
	if err := second.Run(); err != nil {
		t.Fatalf("resumed run failed: %v\n%s", err, errOut.String())
	}
	if got := out.String(); got != wantCSV {
		t.Errorf("resumed CSV differs from sequential:\n--- resumed\n%s--- sequential\n%s", got, wantCSV)
	}
	// A single in-process worker journals every point it evaluates, so the
	// complete records are exactly what the resumed run may skip.
	if line := fmt.Sprintf("resumed=%d evaluated=%d\n", records, points-records); !strings.Contains(errOut.String(), line) {
		t.Errorf("second run did not resume exactly the journaled points, want %q:\n%s", line, errOut.String())
	}
}

// A subprocess worker killed while it holds a point must not fail the run:
// its point is re-dispatched, the worker is spawned again, and every merge
// stays byte-identical.
func TestSubprocessWorkerKilledMidChunk(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess re-exec test")
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// Inherited by the children only: the parent is past TestMain.
	t.Setenv("CLUSTER_TEST_WORKER", "1")
	t.Setenv("CLUSTER_TEST_WORKER_DIE_ONCE", filepath.Join(t.TempDir(), "died"))
	tm := timing
	tm.retryBackoff, tm.readmitEvery = 10*time.Millisecond, 20*time.Millisecond
	setTiming(t, tm)
	c := &Coordinator{Workers: Subprocesses(2, self), Quick: true}

	exps := []*harness.Experiment{harness.ByID("T1"), harness.ByID("S1")}
	res, err := c.Run(exps, func(i int, table *stats.Table) {
		want := exps[i].Run(true)
		if got := table.Render(); got != want.Render() {
			t.Errorf("%s: Render after a killed subprocess differs from sequential:\n--- merged\n%s--- sequential\n%s",
				exps[i].ID, got, want.Render())
		}
		if table.CSV() != want.CSV() {
			t.Errorf("%s: CSV after a killed subprocess differs from sequential", exps[i].ID)
		}
	})
	if err != nil {
		t.Fatalf("a killed subprocess worker failed the run: %v", err)
	}
	if res.Redispatched == 0 {
		t.Error("the killed worker's point was not re-dispatched")
	}
	failed := 0
	for _, a := range res.Agents {
		if a.Failed {
			failed++
		}
	}
	if failed != 1 {
		t.Errorf("%d workers marked failed, want exactly the killed one: %+v", failed, res.Agents)
	}
}

// In-process resume: a journal holding verified points of two experiments
// of the run — half of one grid, one point of the other — must be loaded,
// re-validated and skipped; the coordinator evaluates only the remainder and
// still merges the sequential bytes.
func TestCheckpointResumeSkipsJournaledPoints(t *testing.T) {
	exps := []*harness.Experiment{harness.ByID("T1"), harness.ByID("S1")}
	grids := map[string]int{}
	want := make([]string, len(exps))
	total := 0
	for i, e := range exps {
		grids[e.ID] = e.Grid(true).N
		want[i] = e.Run(true).Render()
		total += grids[e.ID]
	}
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")

	// Journal the way a real run would: one verified point per record,
	// through the real append path.
	cp, done, torn, err := sweep.OpenCheckpoint(ckpt, true, grids)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 || torn != 0 {
		t.Fatalf("fresh checkpoint reported done=%d torn=%d", len(done), torn)
	}
	journal := func(e *harness.Experiment, p int) {
		t.Helper()
		rows, err := (inProcess{}).run(e, true, p, 0)
		if err == nil {
			err = cp.Append(e.ID, p, rows)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	half := max(grids["T1"]/2, 1)
	journal(exps[1], 0) // journal order is not list order
	for p := 0; p < half; p++ {
		journal(exps[0], p)
	}
	cp.Close()
	journaled := half + 1

	addr, _ := startAgent(t)
	check := func(i int, table *stats.Table) {
		if got := table.Render(); got != want[i] {
			t.Errorf("%s: resumed Render differs from sequential:\n--- resumed\n%s--- sequential\n%s", exps[i].ID, got, want[i])
		}
	}
	var logs []string
	c := &Coordinator{
		Workers:        fleet(1, addr),
		Quick:          true,
		CheckpointPath: ckpt,
		Logf:           func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) },
	}
	res, err := c.Run(exps, check)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != journaled {
		t.Errorf("Resumed = %d, want %d", res.Resumed, journaled)
	}
	var pts int
	for _, a := range res.Agents {
		pts += a.Points
	}
	if pts != total-journaled {
		t.Errorf("agents evaluated %d points, want only the %d not journaled (log: %v)", pts, total-journaled, logs)
	}

	// The journal now covers both grids; a third run evaluates nothing.
	c2 := &Coordinator{Workers: fleet(1, addr), Quick: true, CheckpointPath: ckpt}
	res2, err := c2.Run(exps, check)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != total {
		t.Errorf("fully-journaled rerun resumed %d of %d points", res2.Resumed, total)
	}
	for _, a := range res2.Agents {
		if a.Points != 0 {
			t.Errorf("fully-journaled rerun evaluated %d point(s) on %s", a.Points, a.Addr)
		}
	}
}

// A checkpoint for a different sweep must fail the run loudly — silently
// appending to (or truncating) another experiment's journal is data loss.
func TestCheckpointWrongExperimentFailsLoudly(t *testing.T) {
	e, _, _ := seqRender(t, "T1")
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	cp, _, _, err := sweep.OpenCheckpoint(ckpt, true, map[string]int{"S1": 64})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := (inProcess{}).run(harness.ByID("S1"), true, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Append("S1", 0, rows); err != nil {
		t.Fatal(err)
	}
	cp.Close()

	c := &Coordinator{Workers: InProcess(1), Quick: true, CheckpointPath: ckpt}
	if _, _, err := runOne(c, e); err == nil || !strings.Contains(err.Error(), "belongs to exp=S1") {
		t.Fatalf("run against another sweep's checkpoint returned %v, want mismatch error", err)
	}
}

// The chaos property: a cluster sweep with every agent behind a seeded
// faultnet listener — refusals, mid-stream drops, stalls, delayed writes —
// still merges to the sequential bytes, for any seed.
func TestClusterChaosByteIdentity(t *testing.T) {
	e, wantRender, wantCSV := seqRender(t, "T1")
	for _, seed := range []int64{1, 7, 1234} {
		var addrs []string
		for i := 0; i < 2; i++ {
			inner, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ln := faultnet.Wrap(inner, seed+int64(i))
			a := &Agent{}
			go a.Serve(ln)
			t.Cleanup(a.Close)
			t.Cleanup(func() { ln.Close() })
			addrs = append(addrs, inner.Addr().String())
		}
		// Fast recovery so injected faults cost milliseconds, not the default
		// re-probe second.
		tm := timing
		tm.heartbeatEvery, tm.heartbeatTimeout = 20*time.Millisecond, 200*time.Millisecond
		tm.retryBackoff, tm.readmitEvery = 10*time.Millisecond, 25*time.Millisecond
		tm.seed = seed
		setTiming(t, tm)
		c := &Coordinator{Workers: fleet(1, addrs...), Quick: true}
		table, _, err := runOne(c, e)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := table.Render(); got != wantRender {
			t.Errorf("seed %d: chaos Render differs from sequential", seed)
		}
		if got := table.CSV(); got != wantCSV {
			t.Errorf("seed %d: chaos CSV differs from sequential", seed)
		}
	}
}

// An agent whose first connections are torn down must be re-probed,
// re-admitted, and finish the sweep — with the failure and the comeback
// both visible in its stats.
func TestClusterReadmitsRecoveredAgent(t *testing.T) {
	e, wantRender, _ := seqRender(t, "T1")
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Close the first two accepted connections (the initial work+heartbeat
	// pair), then behave: the coordinator sees a live TCP endpoint whose
	// agent "process" dies instantly once, then recovers.
	ln := &flakyListener{Listener: inner, killFirst: 2}
	a := &Agent{}
	go a.Serve(ln)
	t.Cleanup(a.Close)

	tm := timing
	tm.retryBackoff, tm.readmitEvery = 10*time.Millisecond, 20*time.Millisecond
	setTiming(t, tm)
	c := &Coordinator{Workers: Remote(inner.Addr().String()), Quick: true}
	table, res, err := runOne(c, e)
	if err != nil {
		t.Fatal(err)
	}
	if got := table.Render(); got != wantRender {
		t.Errorf("post-readmission Render differs from sequential")
	}
	st := res.Agents[0]
	if !st.Failed {
		t.Error("flaky agent not marked failed")
	}
	if st.Readmitted == 0 {
		t.Error("recovered agent was never re-admitted")
	}
	if st.Points != e.Grid(true).N {
		t.Errorf("re-admitted agent carried %d points, want the whole grid (%d)", st.Points, e.Grid(true).N)
	}
}

type flakyListener struct {
	net.Listener
	mu        sync.Mutex
	accepted  int
	killFirst int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	kill := l.accepted < l.killFirst
	l.accepted++
	l.mu.Unlock()
	if kill {
		conn.Close()
	}
	return conn, nil
}

// A chunk that exceeds its learned deadline must be cancelled and fail the
// connection transiently — the re-dispatch path, not a hung sweep.
func TestChunkDeadlineCancelsStuckChunk(t *testing.T) {
	e := harness.ByID("T1")
	// An agent that answers heartbeats but sits on run requests forever,
	// and a subprocess worker that never reads its stdin.
	addr := evilServer(t, pongingHandler(func(net.Conn, string) {}))
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("CLUSTER_TEST_WORKER", "hang")
	// Heartbeats are healthy here; only the deadline can recover.
	tm := timing
	tm.heartbeatEvery = time.Hour
	tm.deadlineFactor, tm.minDeadline = 1, 100*time.Millisecond
	setTiming(t, tm)
	for _, w := range append(Remote(addr), Subprocesses(1, self)...) {
		r := &run{
			Coordinator: &Coordinator{Quick: true},
			exps:        []*harness.Experiment{e},
			s:           newScheduler([][]float64{e.Grid(true).Costs()}, nil),
		}
		// Prime the cost model past its trust threshold: three fast points.
		for i := 0; i < 3; i++ {
			r.s.observe(job{0, 0}, time.Millisecond)
		}
		l, err := w.open()
		if err != nil {
			t.Fatal(err)
		}
		st := AgentStats{Addr: w.name}
		t0 := time.Now()
		served, requeued, serveErr := r.serve(&st, l)
		l.close()
		if serveErr == nil {
			t.Fatalf("%s: serve returned success against a stuck worker", w.name)
		}
		if !strings.Contains(serveErr.Error(), "chunk deadline exceeded") {
			t.Fatalf("%s: serve error = %v, want chunk deadline", w.name, serveErr)
		}
		if served != 0 || requeued == 0 {
			t.Errorf("%s: served=%d requeued=%d, want the stuck point requeued", w.name, served, requeued)
		}
		if elapsed := time.Since(t0); elapsed > 5*time.Second {
			t.Errorf("%s: deadline cancellation took %v", w.name, elapsed)
		}
	}
}

// Jittered backoff must be deterministic per (seed, addr) and actually
// jittered across addresses.
func TestDialBackoffDeterministicJitter(t *testing.T) {
	if addrSeed("a:1") == addrSeed("b:1") {
		t.Error("distinct addresses produced identical jitter seeds")
	}
	if addrSeed("a:1") != addrSeed("a:1") {
		t.Error("addrSeed is unstable")
	}
}
