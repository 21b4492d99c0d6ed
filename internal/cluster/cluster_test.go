package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/stats"
)

// startAgent serves a real Agent on a loopback listener and returns its
// address. The agent is torn down with the test.
func startAgent(t *testing.T) (string, *Agent) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a := &Agent{}
	go a.Serve(ln)
	t.Cleanup(a.Close)
	return ln.Addr().String(), a
}

// fleet is the worker list most tests want: local in-process workers plus
// one TCP worker per address.
func fleet(local int, addrs ...string) []*Worker {
	return append(InProcess(local), Remote(addrs...)...)
}

// runOne is Run for a single experiment: its one table beside the result.
func runOne(c *Coordinator, e *harness.Experiment) (*stats.Table, *Result, error) {
	var table *stats.Table
	res, err := c.Run([]*harness.Experiment{e}, func(_ int, t *stats.Table) { table = t })
	return table, res, err
}

// setTiming replaces the package's timing for the length of the test.
func setTiming(t *testing.T, tm timings) {
	t.Helper()
	old := timing
	timing = tm
	t.Cleanup(func() { timing = old })
}

func seqRender(t *testing.T, id string) (e *harness.Experiment, render, csv string) {
	t.Helper()
	e = harness.ByID(id)
	if e == nil {
		t.Fatalf("unknown experiment %s", id)
	}
	table := e.Run(true)
	return e, table.Render(), table.CSV()
}

// The acceptance property: a sweep dispatched across two loopback agents
// plus an in-process worker merges to output byte-identical to the
// sequential run.
func TestClusterMergeMatchesSequential(t *testing.T) {
	addr1, _ := startAgent(t)
	addr2, _ := startAgent(t)
	for _, id := range []string{"T1", "F1", "S1"} {
		e, wantRender, wantCSV := seqRender(t, id)
		c := &Coordinator{Workers: fleet(1, addr1, addr2), Quick: true}
		table, res, err := runOne(c, e)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got := table.Render(); got != wantRender {
			t.Errorf("%s: cluster-merged Render differs from sequential:\n--- cluster\n%s--- sequential\n%s",
				id, got, wantRender)
		}
		if got := table.CSV(); got != wantCSV {
			t.Errorf("%s: cluster-merged CSV differs from sequential", id)
		}
		var pts int
		for _, a := range res.Agents {
			pts += a.Points
		}
		if pts != e.Grid(true).N {
			t.Errorf("%s: agents report %d points, grid has %d", id, pts, e.Grid(true).N)
		}
	}
}

// With no in-process worker on the list the remote fleet must carry the
// whole grid — and still reproduce the sequential bytes.
func TestClusterRemoteOnlyMatchesSequential(t *testing.T) {
	addr1, _ := startAgent(t)
	addr2, _ := startAgent(t)
	e, wantRender, _ := seqRender(t, "T1")
	c := &Coordinator{Workers: Remote(addr1, addr2), Quick: true}
	table, res, err := runOne(c, e)
	if err != nil {
		t.Fatal(err)
	}
	if got := table.Render(); got != wantRender {
		t.Errorf("remote-only Render differs from sequential:\n--- cluster\n%s--- sequential\n%s", got, wantRender)
	}
	for _, a := range res.Agents {
		if a.Addr == LocalAgentName {
			t.Error("an in-process worker participated without being on the worker list")
		}
	}
}

// evilServer accepts connections and lets a handler script each one. It
// stands in for agents that die in interesting ways.
func evilServer(t *testing.T, handler func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go handler(conn)
		}
	}()
	return ln.Addr().String()
}

// pongingHandler answers pings like a healthy agent and delegates run
// requests.
func pongingHandler(onRun func(conn net.Conn, line string)) func(net.Conn) {
	return func(conn net.Conn) {
		br := bufio.NewReader(conn)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				conn.Close()
				return
			}
			line = strings.TrimSuffix(line, "\n")
			if line == pingLine {
				fmt.Fprintln(conn, pongLine)
				continue
			}
			onRun(conn, line)
		}
	}
}

// An agent whose TCP connection drops mid-row — partial shard output, no
// terminator — must have its chunk discarded and re-dispatched; the merged
// table stays byte-identical to the sequential run.
func TestClusterDropsConnMidRow(t *testing.T) {
	e, wantRender, _ := seqRender(t, "T1")
	var once sync.Once
	addr := evilServer(t, pongingHandler(func(conn net.Conn, line string) {
		once.Do(func() {
			// Answer the first run request with a truncated shard: header,
			// a point marker, and half a row with no newline — then die.
			fmt.Fprintf(conn, "# sweep v1 exp=%s shard=0/1 quick=true\n# point 0\n802.11,1.", e.ID)
			conn.Close()
		})
		conn.Close()
	}))
	good, _ := startAgent(t)
	// The pause after each chunk guarantees the evil agent gets to pull one
	// before the in-process worker has eaten the grid.
	c := &Coordinator{Workers: fleet(1, addr, good), Quick: true, stepDelay: 20 * time.Millisecond}
	table, res, err := runOne(c, e)
	if err != nil {
		t.Fatal(err)
	}
	if got := table.Render(); got != wantRender {
		t.Errorf("merge after mid-row drop differs from sequential:\n--- cluster\n%s--- sequential\n%s", got, wantRender)
	}
	if res.Redispatched == 0 {
		t.Error("dropped chunk was not re-dispatched")
	}
	failed := false
	for _, a := range res.Agents {
		failed = failed || a.Failed
	}
	if !failed {
		t.Error("no agent marked failed after its connection dropped mid-row")
	}
}

// A real agent killed mid-sweep (listener and connections torn down after
// its first chunk) must not cost any points: survivors finish the grid and
// the merge stays byte-identical.
func TestClusterAgentKilledMidShard(t *testing.T) {
	e, wantRender, _ := seqRender(t, "T1")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	victim := &Agent{}
	served := make(chan struct{}, 16)
	victim.Logf = func(string, ...any) { served <- struct{}{} }
	go victim.Serve(ln)
	t.Cleanup(victim.Close)
	go func() {
		// Kill the victim as soon as it starts evaluating its first chunk:
		// the in-flight response is cut off wherever it happens to be.
		<-served
		victim.Close()
	}()
	good, _ := startAgent(t)
	c := &Coordinator{Workers: fleet(1, ln.Addr().String(), good), Quick: true}
	table, _, err := runOne(c, e)
	if err != nil {
		t.Fatal(err)
	}
	if got := table.Render(); got != wantRender {
		t.Errorf("merge after agent kill differs from sequential:\n--- cluster\n%s--- sequential\n%s", got, wantRender)
	}
}

// A hung agent — accepts connections, never answers anything — must be
// detected by the heartbeat and its work re-dispatched.
func TestClusterHeartbeatDetectsHungAgent(t *testing.T) {
	// T1's grid has several points and the in-process worker pauses after
	// each, so the hung agent is guaranteed to have pulled (and be sitting
	// on) a chunk before the grid runs out — the heartbeat must claw that
	// chunk back.
	e, wantRender, _ := seqRender(t, "T1")
	hung := evilServer(t, func(conn net.Conn) { /* accept and say nothing */ })
	tm := timing
	tm.heartbeatEvery, tm.heartbeatTimeout = 10*time.Millisecond, 100*time.Millisecond
	setTiming(t, tm)
	c := &Coordinator{Workers: fleet(1, hung), Quick: true, stepDelay: 20 * time.Millisecond}
	start := time.Now()
	table, res, err := runOne(c, e)
	if err != nil {
		t.Fatal(err)
	}
	if got := table.Render(); got != wantRender {
		t.Errorf("merge after hung agent differs from sequential")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("hung agent stalled the sweep for %v", elapsed)
	}
	for _, a := range res.Agents {
		if a.Addr == hung && !a.Failed {
			t.Error("hung agent not marked failed")
		}
	}
}

// Every remote failing — here: nothing is even listening — degrades the
// sweep to plain local execution instead of failing it.
func TestClusterDegradesToLocal(t *testing.T) {
	// Grab (and immediately close) two listeners for dead addresses.
	dead := make([]string, 2)
	for i := range dead {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		dead[i] = ln.Addr().String()
		ln.Close()
	}
	e, wantRender, _ := seqRender(t, "T1")
	c := &Coordinator{Workers: fleet(1, dead...), Quick: true}
	table, res, err := runOne(c, e)
	if err != nil {
		t.Fatal(err)
	}
	if got := table.Render(); got != wantRender {
		t.Errorf("degraded-to-local Render differs from sequential")
	}
	var local AgentStats
	for _, a := range res.Agents {
		if a.Addr == LocalAgentName {
			local = a
		}
	}
	if local.Points != e.Grid(true).N {
		t.Errorf("local agent carried %d points, want the whole grid (%d)", local.Points, e.Grid(true).N)
	}
}

// With no in-process worker and no live remotes the sweep must fail
// loudly, not hang.
func TestClusterAllAgentsDeadFails(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	e := harness.ByID("S1")
	c := &Coordinator{Workers: Remote(addr), Quick: true}
	if _, _, err := runOne(c, e); err == nil {
		t.Fatal("sweep with a fully dead fleet reported success")
	}
	if _, _, err := runOne(&Coordinator{Quick: true}, e); err == nil {
		t.Error("empty worker list accepted")
	}
}

// ServeListener must announce its bound address in the exact line
// orchestrators scan for, then serve the protocol.
func TestListenAndServeAnnouncesAddr(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	go ServeListener(ln, pw, nil) // serves until process exit
	line, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	var addr string
	if _, err := fmt.Sscanf(line, "cluster agent listening %s", &addr); err != nil {
		t.Fatalf("unexpected announcement %q", line)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintln(conn, pingLine)
	resp, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || strings.TrimSuffix(resp, "\n") != pongLine {
		t.Fatalf("ping answered %q, %v", resp, err)
	}
}

// A fatal scheduler error must unblock takers and surface from result.
func TestSchedulerFailAborts(t *testing.T) {
	s := newScheduler([][]float64{{1, 1}}, nil)
	s.fail(fmt.Errorf("boom"))
	if j, ok := s.take(); ok {
		t.Fatalf("take after fail returned %v", j)
	}
	if _, err := s.await(0); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("await error = %v, want the fatal error", err)
	}
}

// The agent must answer bad requests with error lines, not shard output —
// and survive them.
func TestAgentProtocolErrors(t *testing.T) {
	addr, _ := startAgent(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	ask := func(req string) string {
		t.Helper()
		fmt.Fprintln(conn, req)
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("agent hung up on %q: %v", req, err)
		}
		return strings.TrimSuffix(line, "\n")
	}
	if got := ask("# run v2 exp=NOPE quick=true point=0"); !strings.HasPrefix(got, errPrefix) {
		t.Errorf("unknown experiment answered %q, want error line", got)
	}
	if got := ask("GET / HTTP/1.1"); !strings.HasPrefix(got, errPrefix) {
		t.Errorf("garbage request answered %q, want error line", got)
	}
	if got := ask("# run v2 exp=S1 quick=true point=999"); !strings.HasPrefix(got, errPrefix) {
		t.Errorf("out-of-grid point answered %q, want error line", got)
	}
	// A request names one point: neither the point-list grammar nor a
	// second point after the first is served.
	for _, req := range []string{"# run v1 exp=T1 quick=true points=0,1", "# run v2 exp=T1 quick=true point=0,1"} {
		if got := ask(req); !strings.HasPrefix(got, errPrefix) {
			t.Errorf("%q answered %q, want error line", req, got)
		}
	}
	// The connection must still serve a healthy request afterwards.
	if got := ask(pingLine); got != pongLine {
		t.Errorf("ping after errors answered %q", got)
	}
	// The in-process transport evaluates through the same function, so it
	// refuses the same points.
	for _, p := range []int{999, -1} {
		if _, err := (inProcess{}).run(harness.ByID("S1"), true, p, 0); err == nil {
			t.Errorf("in-process worker evaluated the out-of-grid point %d", p)
		}
	}
}

// The coordinator side of the same protocol: an answer that is anything but
// the one requested point of the requested sweep fails the point as a fatal
// agent error — reconnecting cannot fix a peer that answers wrongly — and
// nothing a peer sends makes the coordinator buffer without bound.
func TestCoordinatorProtocolErrors(t *testing.T) {
	e := harness.ByID("T1")
	answerTo := func(id string, quick bool, p int) string {
		var out bytes.Buffer
		new(Agent).ServePipe(strings.NewReader(formatRunRequest(id, quick, p)+"\n"), &out)
		return out.String()
	}
	cases := []struct {
		name, answer, want string
	}{
		{"error line", errPrefix + "no such luck\n", "agent error: no such luck"},
		{"another experiment", answerTo("S1", true, 0), "answered exp=S1"},
		{"the other quick mode", answerTo("T1", false, 0), "answered exp=T1 quick=false"},
		{"another point", answerTo("T1", true, 1), "want exp=T1 quick=true point 0 alone"},
		// No agent answers two points to a run request; a peer still could.
		{"a point too many", "# sweep v1 exp=T1 shard=0/1 quick=true\n# point 0\na\n# point 1\nb\n# stats points=2 rows=2\n# end\n", "with 2 point(s)"},
		{"trailer disagrees", "# sweep v1 exp=T1 shard=0/1 quick=true\n# point 0\n# stats points=2 rows=0\n# end\n", "integrity"},
		// Never "# end": rows until the coordinator stops reading.
		{"endless response", "", "response exceeds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord, peer := net.Pipe()
			l := newWireLink(coord)
			defer l.close()
			go func() {
				bufio.NewReader(peer).ReadString('\n') // the request
				io.WriteString(peer, tc.answer)
				for tc.answer == "" {
					if _, err := io.WriteString(peer, strings.Repeat("x,y\n", 1<<10)); err != nil {
						return
					}
				}
			}()
			_, err := l.run(e, true, 0, 0)
			if !errors.Is(err, errFatalAgent) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run = %v, want a fatal agent error holding %q", err, tc.want)
			}
		})
	}
}

// A peer that never sends a newline must not grow the agent's heap without
// limit: past maxRequestLine the agent answers an error line and hangs up.
func TestAgentBoundsRequestLine(t *testing.T) {
	addr, _ := startAgent(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go conn.Write(bytes.Repeat([]byte{'x'}, 2*maxRequestLine)) // fails once the agent hangs up
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatalf("no answer to an over-long request: %v", err)
	}
	if want := errPrefix + "request too long\n"; line != want {
		t.Errorf("over-long request answered %q, want %q", line, want)
	}
	if _, err := br.ReadString('\n'); err == nil {
		t.Error("agent kept the connection open after an over-long request")
	}
}
