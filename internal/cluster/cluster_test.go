package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
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
		res, err := c.Run(e)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if got := res.Table.Render(); got != wantRender {
			t.Errorf("%s: cluster-merged Render differs from sequential:\n--- cluster\n%s--- sequential\n%s",
				id, got, wantRender)
		}
		if got := res.Table.CSV(); got != wantCSV {
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
	res, err := c.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Table.Render(); got != wantRender {
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
	res, err := c.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Table.Render(); got != wantRender {
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
	res, err := c.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Table.Render(); got != wantRender {
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
	c := &Coordinator{
		Workers:          fleet(1, hung),
		Quick:            true,
		stepDelay:        20 * time.Millisecond,
		HeartbeatEvery:   10 * time.Millisecond,
		HeartbeatTimeout: 100 * time.Millisecond,
	}
	start := time.Now()
	res, err := c.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Table.Render(); got != wantRender {
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
	c := &Coordinator{Workers: fleet(1, dead...), Quick: true, DialTimeout: time.Second}
	res, err := c.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Table.Render(); got != wantRender {
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
	c := &Coordinator{Workers: Remote(addr), Quick: true, DialTimeout: time.Second}
	if _, err := c.Run(e); err == nil {
		t.Fatal("sweep with a fully dead fleet reported success")
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

// The tuning knobs must fall back to sane defaults when unset.
func TestCoordinatorDefaults(t *testing.T) {
	c := &Coordinator{}
	if c.heartbeatEvery() <= 0 || c.heartbeatTimeout() <= c.heartbeatEvery() {
		t.Errorf("heartbeat defaults inconsistent: every=%v timeout=%v", c.heartbeatEvery(), c.heartbeatTimeout())
	}
	if c.dialTimeout() <= 0 {
		t.Errorf("dial timeout default %v", c.dialTimeout())
	}
	if _, err := c.Run(harness.ByID("S1")); err == nil {
		t.Error("empty worker list accepted")
	}
}

// A fatal scheduler error must unblock takers and surface from result.
func TestSchedulerFailAborts(t *testing.T) {
	s := newScheduler([]float64{1, 1}, 1)
	s.fail(fmt.Errorf("boom"))
	if pts := s.take(1); pts != nil {
		t.Fatalf("take after fail returned %v", pts)
	}
	if _, err := s.result(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("result error = %v, want the fatal error", err)
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
	if got := ask("# run v1 exp=NOPE quick=true points=0"); !strings.HasPrefix(got, errPrefix) {
		t.Errorf("unknown experiment answered %q, want error line", got)
	}
	if got := ask("GET / HTTP/1.1"); !strings.HasPrefix(got, errPrefix) {
		t.Errorf("garbage request answered %q, want error line", got)
	}
	if got := ask("# run v1 exp=S1 quick=true points=999"); !strings.HasPrefix(got, errPrefix) {
		t.Errorf("out-of-grid point answered %q, want error line", got)
	}
	if got := ask("# run v1 exp=S1 quick=true points=0,0"); !strings.HasPrefix(got, errPrefix) {
		t.Errorf("duplicated point answered %q, want error line", got)
	}
	// The connection must still serve a healthy request afterwards.
	if got := ask(pingLine); got != pongLine {
		t.Errorf("ping after errors answered %q", got)
	}
	// The in-process transport evaluates through the same function, so it
	// refuses the same point lists.
	for _, pts := range [][]int{{999}, {0, 0}} {
		if _, err := (inProcess{}).run(harness.ByID("S1"), true, pts, 0); err == nil {
			t.Errorf("in-process worker evaluated the bad point list %v", pts)
		}
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
