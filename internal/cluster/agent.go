// Package cluster is the sweep engine: one scheduler decides which grid
// point of which experiment runs where, fed by an explicit list of workers.
// The Coordinator is handed the whole list of experiments of an invocation
// and owns scheduling, fault handling, the checkpoint journal and the
// merges; a worker is whatever evaluates the points it is handed, reached
// through one of three transports:
//
//   - in-process: a goroutine of the coordinator's own process evaluates
//     the point and delivers the rows directly. No wire round trip, so
//     table cells are unrestricted;
//   - subprocess: a child process running the agent's serve loop on its
//     stdin/stdout (`experiments -agent -`). Pipe EOF is the liveness
//     signal in both directions — a dead child fails the coordinator's
//     read, a dead coordinator ends the child's loop — and a point past its
//     deadline is cancelled by killing the child;
//   - TCP: an agent process on any reachable machine (`experiments -agent
//     :7101`), with a heartbeat on a second connection.
//
// A run is one queue over every (experiment, point) of the list, ordered by
// (position in the list, cost descending, point ascending): a worker that
// finds an experiment fully in flight takes the next one's costliest point
// instead of waiting, so there is no barrier between experiments. Tables are
// merged and emitted in list order, each as soon as it and every table
// before it is complete. A link to a worker is opened when the run first
// needs it and lives exactly as long as the run; one journal covers the run;
// Result — who served how much, what was re-dispatched or resumed — is per
// run, because worker failure was never a property of an experiment.
//
// Every transport evaluates a point with the same function,
// sweep.EvalPoint. The subprocess and TCP transports carry its result over
// one line protocol, layered on the internal/sweep shard format; the
// in-process transport skips the encoding.
//
// # Wire protocol
//
// An agent serves any number of sequential requests per connection. Each
// request is one line (at most 4 KiB); each response ends with a terminator
// line, so both sides can frame without byte counts:
//
//	→ # ping
//	← # pong
//
//	→ # run v2 exp=F1 quick=true point=1
//	← # sweep v1 exp=F1 shard=0/1 quick=true
//	← # point 1
//	← 5,6.33,5.33,6.54,5.30
//	← # stats points=1 rows=1
//	← # end
//
// The run response is exactly the sweep.WriteShard wire format (readable as
// an artifact, guarded by the same loud round-trip checks) and nothing else:
// a worker answers with rows, and what it costs to produce them is read from
// its own -metrics endpoint, not from the response. A request the agent
// cannot serve answers `# error: <reason>` instead of a shard. One point per
// request is the finest-grained stealing and re-dispatch, and a coordinator
// buffers at most 4 MiB of a response. Point evaluation is deterministic — a
// point's rows depend only on the experiment, quick mode and point index —
// which is what lets the coordinator re-dispatch work anywhere and still
// merge tables byte-identical to the sequential run.
//
// # At-least-once dispatch, exactly-once merge, resume
//
// Dispatch is at-least-once: a point whose worker fails — connection loss,
// a dead subprocess, missed heartbeat, exceeded deadline, or a response
// that fails validation — is re-dispatched to whichever worker next asks
// for work, so the same point may be evaluated more than once. The
// coordinator nevertheless guarantees each grid point lands in its merged
// table exactly once, whatever fails in between:
//
//   - every response is validated against the request (experiment, quick
//     mode, and the one point asked for) before any row is accepted;
//   - a failed or dead worker's in-flight point is re-dispatched to the
//     surviving workers (in-process workers cannot die, so a run that has
//     one degrades to local execution rather than failing); once-live
//     workers are periodically re-probed — re-dialled or re-spawned — and
//     re-admitted when they come back;
//   - results are deduplicated by (experiment, point) — the first valid
//     result wins and later duplicates from re-dispatch races are
//     discarded; both results are byte-identical by determinism, so
//     "first wins" is not a race on content;
//   - each merge (sweep.Merge) independently re-verifies that every point
//     in [0, N) is present exactly once.
//
// With Coordinator.CheckpointPath set, the contract extends across
// coordinator process death, whatever the worker list: every point is
// journaled (internal/sweep checkpoint format, fsynced append, each record
// naming its experiment) only after it passes the validation above, so the
// journal holds nothing unverified. A restarted coordinator re-validates the
// journal against the run's quick mode and grids — a record of an experiment
// the run does not evaluate is a loud error, never a truncation — truncates
// at most a torn trailing record (the one a crash may have cut), marks the
// journaled points delivered before any worker starts, and dispatches only
// the remainder: the resumed run's tables are byte-identical to an
// uninterrupted run's. Journal duplicates from re-dispatch races are
// tolerated when byte-identical and rejected loudly otherwise.
//
// Agents are trusted, version-matched binaries (the same experiment
// registry must be compiled in); the validation above is a seatbelt against
// skew and transport truncation, not a security boundary.
package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// Protocol literals shared by agent and coordinator.
const (
	pingLine  = "# ping"
	pongLine  = "# pong"
	endLine   = "# end"
	errPrefix = "# error: "
	runPrefix = "# run v2 "
)

// maxRequestLine bounds one request line. An agent port is unauthenticated,
// so a peer that never sends a newline must not grow the heap without
// limit; a run request names one experiment and one point, so 4 KiB is
// ample.
const maxRequestLine = 4 << 10

// maxResponse bounds what a coordinator buffers of one response. It asks for
// one point at a time and a point's rows are a few hundred bytes, so a peer
// that never sends "# end" is cut off here instead of growing the heap until
// a deadline that does not exist while the cost model is untrusted.
const maxResponse = 4 << 20

// Agent serves sweep chunks over TCP listeners (Serve) or a byte stream
// (ServePipe). The zero value is ready to use; Logf, when set, receives one
// line per served request.
type Agent struct {
	// Logf logs request-level activity (nil silences it).
	Logf func(format string, args ...any)

	mu    sync.Mutex
	lns   []net.Listener
	conns map[net.Conn]bool
	done  bool
}

// Serve accepts connections on ln until the listener is closed (see Close).
// It is safe to call concurrently on multiple listeners.
func (a *Agent) Serve(ln net.Listener) error {
	a.track(ln)
	for {
		conn, err := ln.Accept()
		if err != nil {
			a.mu.Lock()
			done := a.done
			a.mu.Unlock()
			if done {
				return nil
			}
			return err
		}
		a.mu.Lock()
		if a.conns == nil {
			a.conns = make(map[net.Conn]bool)
		}
		a.conns[conn] = true
		a.mu.Unlock()
		go a.serveConn(conn)
	}
}

func (a *Agent) track(ln net.Listener) {
	a.mu.Lock()
	a.lns = append(a.lns, ln)
	a.mu.Unlock()
}

// Close stops the agent: listeners stop accepting and open connections are
// torn down.
func (a *Agent) Close() {
	a.mu.Lock()
	a.done = true
	lns, conns := a.lns, a.conns
	a.lns, a.conns = nil, nil
	a.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for c := range conns {
		c.Close()
	}
}

func (a *Agent) logf(format string, args ...any) {
	if a.Logf != nil {
		a.Logf(format, args...)
	}
}

// serveConn runs the serve loop on one accepted connection.
func (a *Agent) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		a.mu.Lock()
		delete(a.conns, conn)
		a.mu.Unlock()
	}()
	a.ServePipe(conn, conn)
}

// ServePipe answers pings and run requests read from r on w until r ends
// or a write fails. It is the serve loop of every transport: a TCP
// connection, or the stdin/stdout of a subprocess worker, where the
// coordinator closing the pipe (or dying) is what ends the loop.
func (a *Agent) ServePipe(r io.Reader, w io.Writer) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxRequestLine)
	bw := bufio.NewWriter(w)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == pingLine:
			fmt.Fprintln(bw, pongLine)
		case strings.HasPrefix(line, runPrefix):
			a.serveRun(bw, line)
		default:
			fmt.Fprintf(bw, "%sunknown request %q\n", errPrefix, line)
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		fmt.Fprintf(bw, "%srequest too long\n", errPrefix)
		bw.Flush()
	}
}

// serveRun evaluates one run request and writes the shard wire format (or
// an error line) to w.
func (a *Agent) serveRun(w io.Writer, line string) {
	expID, quick, p, err := parseRunRequest(line)
	if err != nil {
		fmt.Fprintf(w, "%s%v\n", errPrefix, err)
		return
	}
	e := harness.ByID(expID)
	if e == nil {
		fmt.Fprintf(w, "%sunknown experiment %q\n", errPrefix, expID)
		return
	}
	a.logf("run %s quick=%t point=%d", expID, quick, p)
	obs.Agent.Chunks.Inc()
	obs.Agent.Points.Inc()
	rows, err := sweep.EvalPoint(e, quick, p)
	if err == nil {
		err = sweep.WriteShard(w, sweep.Header{Exp: e.ID, Shards: 1, Quick: quick},
			map[int][][]string{p: rows}, sweep.ShardStats{Points: 1, Rows: len(rows)})
	}
	if err != nil {
		// The shard output may already be partially written; the error line
		// makes the response unparseable on purpose, so the coordinator
		// discards the point instead of merging a truncated shard.
		fmt.Fprintf(w, "%s%v\n", errPrefix, err)
	}
}

// formatRunRequest builds the request line serveRun parses.
func formatRunRequest(expID string, quick bool, p int) string {
	return fmt.Sprintf("%sexp=%s quick=%t point=%d", runPrefix, expID, quick, p)
}

// parseRunRequest accepts only the line formatRunRequest writes, so trailing
// text such as a second point is refused rather than ignored.
func parseRunRequest(line string) (expID string, quick bool, p int, err error) {
	_, err = fmt.Sscanf(line, runPrefix+"exp=%s quick=%t point=%d", &expID, &quick, &p)
	if err != nil || formatRunRequest(expID, quick, p) != line {
		return "", false, 0, fmt.Errorf("bad run request %q", line)
	}
	return expID, quick, p, nil
}

// ServeListener serves an agent on ln — a TCP listener, possibly behind a
// fault-injecting wrapper (see internal/cluster/faultnet) — and announces
// the bound address on w as "cluster agent listening <addr>", the line
// orchestrators that spawn agent subprocesses scan for. It serves until the
// process exits.
func ServeListener(ln net.Listener, w io.Writer, logf func(string, ...any)) error {
	fmt.Fprintf(w, "cluster agent listening %s\n", ln.Addr())
	a := &Agent{Logf: logf}
	return a.Serve(ln)
}
