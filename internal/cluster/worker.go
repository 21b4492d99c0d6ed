package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// Worker is one entry of a Coordinator's worker list: a name for the
// per-worker stats and metrics, and a way to open a link to whatever
// evaluates its points. Build them with InProcess, Subprocesses and Remote.
type Worker struct {
	name string
	open func() (link, error)
}

// link is the transport seam: one live connection to something that
// evaluates points. A link lives at most as long as the one Run that opened
// it.
type link interface {
	// run evaluates one point and returns its rows. A positive limit cancels
	// a point that takes longer by closing the link (transports that cannot
	// cancel ignore it).
	run(e *harness.Experiment, quick bool, p int, limit time.Duration) ([][]string, error)
	close()
}

// InProcess returns n workers that evaluate points on goroutines of the
// coordinator's own process.
func InProcess(n int) []*Worker {
	ws := make([]*Worker, n)
	for i := range ws {
		ws[i] = &Worker{name: LocalAgentName, open: func() (link, error) { return inProcess{}, nil }}
	}
	return ws
}

// Subprocesses returns n workers ("shard0" …) that each run `bin args...`
// as a child process serving the wire protocol on its stdin/stdout (see
// Agent.ServePipe). A child is started when the run first needs it, serves
// the whole run, and is started again if it dies.
func Subprocesses(n int, bin string, args ...string) []*Worker {
	ws := make([]*Worker, n)
	for i := range ws {
		ws[i] = &Worker{
			name: fmt.Sprintf("shard%d", i),
			open: func() (link, error) {
				p, err := startProc(bin, args)
				if err != nil {
					return nil, err
				}
				return newWireLink(p), nil
			},
		}
	}
	return ws
}

// Remote returns one worker per TCP agent address (host:port). A run dials
// each agent once — a work connection plus a heartbeat connection — and
// again only after a failure.
func Remote(addrs ...string) []*Worker {
	ws := make([]*Worker, len(addrs))
	for i, addr := range addrs {
		ws[i] = &Worker{name: addr, open: func() (link, error) {
			work, err := net.DialTimeout("tcp", addr, timing.dialTimeout)
			if err != nil {
				return nil, err
			}
			// Liveness runs on a second connection so a long-running point
			// cannot be mistaken for a dead agent: the agent answers pings
			// from a separate handler while the work connection is busy
			// computing. When the process dies both connections die; the
			// heartbeat notices within its timeout and closes the work
			// connection, failing the read blocked on it.
			stopHB, err := startHeartbeat(addr, work)
			if err != nil {
				work.Close()
				return nil, err
			}
			return newWireLink(tcpConn{Conn: work, stopHB: stopHB}), nil
		}}
	}
	return ws
}

// inProcess evaluates points on the calling goroutine.
type inProcess struct{}

func (inProcess) run(e *harness.Experiment, quick bool, p int, _ time.Duration) ([][]string, error) {
	byPoint, err := sweep.EvalPoints(e, quick, []int{p})
	return byPoint[p], err
}

func (inProcess) close() {}

// wireLink speaks the `# run v1` request / shard response protocol over a
// TCP connection or a subprocess's pipes.
type wireLink struct {
	conn io.ReadWriteCloser
	lim  io.LimitedReader // bounds one response at maxResponse
	br   *bufio.Reader
}

func newWireLink(conn io.ReadWriteCloser) *wireLink {
	l := &wireLink{conn: conn}
	l.lim.R = conn
	l.br = bufio.NewReader(&l.lim)
	return l
}

func (l *wireLink) run(e *harness.Experiment, quick bool, p int, limit time.Duration) ([][]string, error) {
	t0 := time.Now()
	if limit > 0 {
		// Closing the link is the one cancel every byte transport has: it
		// fails the read below, and for a subprocess it kills the child.
		defer time.AfterFunc(limit, l.close).Stop()
	}
	if _, err := fmt.Fprintln(l.conn, formatRunRequest(e.ID, quick, []int{p})); err != nil {
		return nil, err
	}
	l.lim.N = maxResponse
	raw, err := readResponse(l.br)
	if err != nil {
		if l.lim.N <= 0 {
			return nil, fatalAgent(fmt.Errorf("response exceeds %d bytes without %q", maxResponse, endLine))
		}
		if elapsed := time.Since(t0); limit > 0 && elapsed >= limit {
			err = fmt.Errorf("chunk deadline exceeded after %v: %w", elapsed.Round(time.Millisecond), err)
		}
		return nil, err
	}
	h, byPoint, _, err := sweep.ParseShard(bytes.NewReader(raw))
	if err != nil {
		return nil, fatalAgent(err)
	}
	rows, ok := byPoint[p]
	if h.Exp != e.ID || h.Quick != quick || !ok || len(byPoint) != 1 {
		return nil, fatalAgent(fmt.Errorf("agent answered exp=%s quick=%t with %d point(s), want exp=%s quick=%t point %d alone",
			h.Exp, h.Quick, len(byPoint), e.ID, quick, p))
	}
	return rows, nil
}

func (l *wireLink) close() { l.conn.Close() }

// readResponse reads one framed response: every line up to and including
// the "# end" terminator. A "# error:" line from the agent (or the end of the
// stream before the terminator) fails the point.
func readResponse(br *bufio.Reader) ([]byte, error) {
	var buf bytes.Buffer
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("connection lost mid-response: %w", err)
		}
		trimmed := strings.TrimSuffix(line, "\n")
		if strings.HasPrefix(trimmed, errPrefix) {
			return nil, fatalAgent(fmt.Errorf("agent error: %s", strings.TrimPrefix(trimmed, errPrefix)))
		}
		buf.WriteString(line)
		if trimmed == endLine {
			return buf.Bytes(), nil
		}
	}
}

// proc is a child process serving the wire protocol on its stdin/stdout.
// Its stderr passes through to the coordinator's, so crash output stays
// visible.
type proc struct {
	cmd       *exec.Cmd
	io.Writer // the child's stdin
	io.Reader // the child's stdout
	closed    sync.Once
}

func startProc(bin string, args []string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &proc{cmd: cmd, Writer: stdin, Reader: stdout}, nil
}

// Close kills the child — the cancel of a chunk past its deadline, and a
// no-op on one already dead — and reaps it; Wait closes both pipes. A
// deadline and the supervisor may both close: the second waits for the
// first.
func (p *proc) Close() error {
	p.closed.Do(func() {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	})
	return nil
}

// tcpConn is a work connection together with its heartbeat.
type tcpConn struct {
	net.Conn
	stopHB func()
}

func (c tcpConn) Close() error {
	c.stopHB()
	return c.Conn.Close()
}

// startHeartbeat dials the agent's control connection and pings it until
// stopped. On a missed or late pong it closes work, which unblocks the work
// loop's pending read with an error and triggers re-dispatch.
func startHeartbeat(addr string, work net.Conn) (stop func(), err error) {
	hb, err := net.DialTimeout("tcp", addr, timing.dialTimeout)
	if err != nil {
		return nil, err
	}
	done := make(chan struct{})
	var once sync.Once
	stop = func() {
		once.Do(func() {
			close(done)
			hb.Close()
		})
	}
	rtt := obs.ClusterAgent(addr).HeartbeatRTT
	// Read once, here: the goroutine may outlive the Run that started it by
	// one iteration.
	every, timeout := timing.heartbeatEvery, timing.heartbeatTimeout
	go func() {
		br := bufio.NewReader(hb)
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			hb.SetDeadline(time.Now().Add(timeout))
			t0 := time.Now()
			if _, err := fmt.Fprintln(hb, pingLine); err != nil {
				work.Close()
				return
			}
			line, err := br.ReadString('\n')
			if err != nil || strings.TrimSuffix(line, "\n") != pongLine {
				work.Close()
				return
			}
			rtt.Observe(uint64(time.Since(t0)))
		}
	}()
	return stop, nil
}
