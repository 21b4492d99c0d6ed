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
	"repro/internal/sweep"
)

// TestMain doubles as the coordinator entry point for the kill/resume
// subprocess test: when CLUSTER_COORD_CHILD is set, the test binary runs a
// checkpointed local-only cluster sweep and exits — a stand-in for
// `experiments -checkpoint` that the parent test can kill mid-run and
// restart against the same journal. With CLUSTER_TEST_WORKER set it is a
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

func runCoordChild() {
	e := harness.ByID(os.Getenv("CLUSTER_CHILD_EXP"))
	if e == nil {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", os.Getenv("CLUSTER_CHILD_EXP"))
		os.Exit(1)
	}
	step, _ := time.ParseDuration(os.Getenv("CLUSTER_CHILD_STEP"))
	c := &Coordinator{
		Workers:        InProcess(1),
		Quick:          true,
		CheckpointPath: os.Getenv("CLUSTER_CHILD_CKPT"),
		stepDelay:      step,
	}
	res, err := c.Run(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "resumed=%d\n", res.Resumed)
	fmt.Print(res.Table.CSV())
}

// The acceptance property for durability: a coordinator process killed
// mid-sweep and restarted against the same -checkpoint journal produces
// output byte-identical to the uninterrupted sequential run — and actually
// resumes (the second run skips journaled points instead of starting over).
func TestCoordinatorKilledAndResumedByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess re-exec test")
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	e, _, wantCSV := seqRender(t, "T1")
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")

	env := append(os.Environ(),
		"CLUSTER_COORD_CHILD=1",
		"CLUSTER_CHILD_EXP="+e.ID,
		"CLUSTER_CHILD_CKPT="+ckpt,
	)

	// Run 1: throttled so the grid cannot finish before the kill, killed as
	// soon as the journal holds at least one record.
	first := exec.Command(self, "-test.run=TestMain")
	first.Env = append(env, "CLUSTER_CHILD_STEP=250ms")
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		data, _ := os.ReadFile(ckpt)
		if sweep.CountRecords(data) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			first.Process.Kill()
			first.Wait()
			t.Fatal("checkpoint never gained a record")
		}
		time.Sleep(10 * time.Millisecond)
	}
	first.Process.Kill()
	first.Wait()

	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	records := sweep.CountRecords(data)
	if records >= e.Grid(true).N {
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
	if !strings.Contains(errOut.String(), "resumed=") || strings.Contains(errOut.String(), "resumed=0\n") {
		t.Errorf("second run did not resume from the checkpoint:\n%s", errOut.String())
	}
}

// A subprocess worker killed while it holds a chunk must not fail the
// sweep: its point is re-dispatched, the merge stays byte-identical, and
// the same worker list serves the next sweep.
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
	c := &Coordinator{
		Workers:      Subprocesses(2, self),
		Quick:        true,
		RetryBackoff: 10 * time.Millisecond,
		ReadmitEvery: 20 * time.Millisecond,
	}
	defer c.Close()

	e, wantRender, wantCSV := seqRender(t, "T1")
	res, err := c.Run(e)
	if err != nil {
		t.Fatalf("a killed subprocess worker failed the sweep: %v", err)
	}
	if got := res.Table.Render(); got != wantRender {
		t.Errorf("Render after a killed subprocess differs from sequential:\n--- merged\n%s--- sequential\n%s", got, wantRender)
	}
	if got := res.Table.CSV(); got != wantCSV {
		t.Error("CSV after a killed subprocess differs from sequential")
	}
	if res.Redispatched == 0 {
		t.Error("the killed worker's chunk was not re-dispatched")
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

	// The survivor stays up between sweeps; the victim is spawned again
	// when next needed.
	kept := 0
	for _, w := range c.Workers {
		if w.kept != nil {
			kept++
		}
	}
	if kept == 0 {
		t.Error("no subprocess was kept for the next sweep")
	}
	e2, want2, _ := seqRender(t, "S1")
	res2, err := c.Run(e2)
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.Table.Render(); got != want2 {
		t.Error("second sweep on the same worker list differs from sequential")
	}
}

// In-process resume: a journal holding a verified prefix of the grid must
// be loaded, re-validated and skipped — the coordinator evaluates only the
// remainder and still merges the sequential bytes.
func TestCheckpointResumeSkipsJournaledPoints(t *testing.T) {
	e, wantRender, _ := seqRender(t, "T1")
	n := e.Grid(true).N
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")

	// Journal the first half of the grid the way a real run would: one
	// verified chunk per point, through the real append path.
	cp, done, torn, err := sweep.OpenCheckpoint(ckpt, e.ID, true, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 || torn != 0 {
		t.Fatalf("fresh checkpoint reported done=%d torn=%d", len(done), torn)
	}
	half := n / 2
	if half == 0 {
		half = 1
	}
	for p := 0; p < half; p++ {
		byPoint, err := sweep.EvalPoints(e, true, []int{p})
		if err != nil {
			t.Fatal(err)
		}
		if err := cp.AppendChunk(byPoint, sweep.ShardStats{Points: 1, Rows: len(byPoint[p])}); err != nil {
			t.Fatal(err)
		}
	}
	cp.Close()

	addr, _ := startAgent(t)
	var evaluated []string
	c := &Coordinator{
		Workers:        fleet(1, addr),
		Quick:          true,
		CheckpointPath: ckpt,
		Logf:           func(format string, args ...any) { evaluated = append(evaluated, fmt.Sprintf(format, args...)) },
	}
	res, err := c.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != half {
		t.Errorf("Resumed = %d, want %d", res.Resumed, half)
	}
	if got := res.Table.Render(); got != wantRender {
		t.Errorf("resumed Render differs from sequential:\n--- resumed\n%s--- sequential\n%s", got, wantRender)
	}
	var pts int
	for _, a := range res.Agents {
		pts += a.Points
	}
	if pts != n-half {
		t.Errorf("agents evaluated %d points, want only the %d not journaled (log: %v)", pts, n-half, evaluated)
	}

	// The journal now covers the whole grid; a third run evaluates nothing.
	c2 := &Coordinator{Workers: fleet(1, addr), Quick: true, CheckpointPath: ckpt}
	res2, err := c2.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed != n {
		t.Errorf("fully-journaled rerun resumed %d of %d points", res2.Resumed, n)
	}
	if got := res2.Table.Render(); got != wantRender {
		t.Error("fully-journaled rerun differs from sequential")
	}
}

// A checkpoint for a different sweep must fail the run loudly — silently
// appending to (or truncating) another experiment's journal is data loss.
func TestCheckpointWrongExperimentFailsLoudly(t *testing.T) {
	e, _, _ := seqRender(t, "T1")
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	cp, _, _, err := sweep.OpenCheckpoint(ckpt, "S1", true, 64)
	if err != nil {
		t.Fatal(err)
	}
	byPoint, err := sweep.EvalPoints(harness.ByID("S1"), true, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.AppendChunk(byPoint, sweep.ShardStats{Points: 1, Rows: len(byPoint[0])}); err != nil {
		t.Fatal(err)
	}
	cp.Close()

	c := &Coordinator{Workers: InProcess(1), Quick: true, CheckpointPath: ckpt}
	if _, err := c.Run(e); err == nil || !strings.Contains(err.Error(), "belongs to exp=S1") {
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
		c := &Coordinator{
			Workers: fleet(1, addrs...),
			Quick:   true,
			// Fast recovery knobs so injected faults cost milliseconds, not
			// the default re-probe second.
			HeartbeatEvery:   20 * time.Millisecond,
			HeartbeatTimeout: 200 * time.Millisecond,
			RetryBackoff:     10 * time.Millisecond,
			ReadmitEvery:     25 * time.Millisecond,
			Seed:             seed,
		}
		res, err := c.Run(e)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := res.Table.Render(); got != wantRender {
			t.Errorf("seed %d: chaos Render differs from sequential", seed)
		}
		if got := res.Table.CSV(); got != wantCSV {
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

	c := &Coordinator{
		Workers:      Remote(inner.Addr().String()),
		Quick:        true,
		RetryBackoff: 10 * time.Millisecond,
		ReadmitEvery: 20 * time.Millisecond,
	}
	res, err := c.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Table.Render(); got != wantRender {
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
	c := &Coordinator{
		Quick: true,
		// Heartbeats are healthy here; only the deadline can recover.
		HeartbeatEvery:      time.Hour,
		ChunkDeadlineFactor: 1,
		MinChunkDeadline:    100 * time.Millisecond,
	}
	for _, w := range append(Remote(addr), Subprocesses(1, self)...) {
		s := newScheduler(e.Grid(true).Costs(), 1)
		// Prime the cost model past its trust threshold: three fast chunks.
		for i := 0; i < 3; i++ {
			s.observe(1, time.Millisecond)
		}
		l, err := w.open(c)
		if err != nil {
			t.Fatal(err)
		}
		st := AgentStats{Addr: w.name}
		t0 := time.Now()
		served, requeued, serveErr := c.serve(e, s, nil, &st, l)
		l.close()
		if serveErr == nil {
			t.Fatalf("%s: serve returned success against a stuck worker", w.name)
		}
		if !strings.Contains(serveErr.Error(), "chunk deadline exceeded") {
			t.Fatalf("%s: serve error = %v, want chunk deadline", w.name, serveErr)
		}
		if served != 0 || requeued == 0 {
			t.Errorf("%s: served=%d requeued=%d, want the stuck chunk requeued", w.name, served, requeued)
		}
		if elapsed := time.Since(t0); elapsed > 5*time.Second {
			t.Errorf("%s: deadline cancellation took %v", w.name, elapsed)
		}
	}
}

// HeartbeatTimeout <= HeartbeatEvery cannot ever observe a pong: the
// coordinator must clamp it (loudly), not silently declare every agent
// dead.
func TestHeartbeatMisconfigClampedLoudly(t *testing.T) {
	cases := []struct {
		every, timeout time.Duration
		clamped        bool
	}{
		{100 * time.Millisecond, 50 * time.Millisecond, true},
		{100 * time.Millisecond, 100 * time.Millisecond, true}, // boundary: equal is still unservable
		{100 * time.Millisecond, 101 * time.Millisecond, false},
		{0, 0, false}, // defaults are consistent
	}
	for _, tc := range cases {
		c := &Coordinator{HeartbeatEvery: tc.every, HeartbeatTimeout: tc.timeout}
		if got := c.heartbeatMisconfigured(); got != tc.clamped {
			t.Errorf("every=%v timeout=%v: misconfigured=%v, want %v", tc.every, tc.timeout, got, tc.clamped)
		}
		if c.heartbeatTimeout() <= c.heartbeatEvery() {
			t.Errorf("every=%v timeout=%v: effective timeout %v not past interval %v",
				tc.every, tc.timeout, c.heartbeatTimeout(), c.heartbeatEvery())
		}
	}

	// The clamp must be logged — and the clamped sweep must still work.
	e, wantRender, _ := seqRender(t, "T1")
	var mu sync.Mutex
	var logs []string
	c := &Coordinator{
		Workers:          InProcess(1),
		Quick:            true,
		HeartbeatEvery:   50 * time.Millisecond,
		HeartbeatTimeout: 10 * time.Millisecond,
		Logf: func(format string, args ...any) {
			mu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	}
	res, err := c.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Table.Render(); got != wantRender {
		t.Error("clamped-heartbeat Render differs from sequential")
	}
	mu.Lock()
	defer mu.Unlock()
	found := false
	for _, l := range logs {
		found = found || strings.Contains(l, "clamping")
	}
	if !found {
		t.Errorf("heartbeat clamp was not logged: %v", logs)
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
