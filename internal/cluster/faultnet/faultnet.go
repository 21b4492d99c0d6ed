// Package faultnet injects deterministic network faults under the cluster
// protocol: a seeded wrapper around net.Listener / net.Conn that schedules
// connection refusals, mid-stream drops after N bytes, stalls, and delayed
// writes. The schedule is a pure function of (seed, accepted-connection
// index) — two processes wrapping their listeners with the same seed
// impose bit-for-bit the same fault plan on their nth connection, so a
// chaos run is reproducible.
//
// faultnet sits on the agent side (wrap the listener an Agent serves), so
// write faults hit shard responses mid-stream — the hardest case for the
// coordinator's exactly-once merge. The cluster sweep's output under any
// fault schedule must stay byte-identical to the sequential run; the chaos
// tests pin exactly that.
package faultnet

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// Kind enumerates the injectable faults.
type Kind int

const (
	// None leaves the connection untouched.
	None Kind = iota
	// Refuse closes the connection immediately after accept: the dialer's
	// connect succeeds (the TCP handshake is the kernel's) but the first
	// read or write sees a dead peer — the cluster-visible shape of an
	// agent process that is gone while its port is still bound.
	Refuse
	// DropAfter severs the connection once AfterBytes response bytes have
	// been written: a mid-stream crash that tears shard output at an
	// arbitrary byte.
	DropAfter
	// Stall freezes writes for Delay once AfterBytes have been written,
	// then resumes: a GC pause, a saturated link — long enough to trip
	// aggressive deadlines, short enough to finish.
	Stall
	// DelayWrites sleeps Delay before every write: a uniformly slow agent.
	DelayWrites
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Refuse:
		return "refuse"
	case DropAfter:
		return "drop"
	case Stall:
		return "stall"
	case DelayWrites:
		return "delay"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Plan is one connection's fault schedule.
type Plan struct {
	Kind       Kind
	AfterBytes int           // DropAfter / Stall trigger point
	Delay      time.Duration // Stall duration or per-write delay
}

func (p Plan) String() string {
	switch p.Kind {
	case DropAfter:
		return fmt.Sprintf("drop after %d bytes", p.AfterBytes)
	case Stall:
		return fmt.Sprintf("stall %v after %d bytes", p.Delay, p.AfterBytes)
	case DelayWrites:
		return fmt.Sprintf("delay writes %v", p.Delay)
	default:
		return p.Kind.String()
	}
}

// splitmix64 is the standard 64-bit finalizing mixer: full avalanche, so
// consecutive connection indices draw statistically independent plans.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// PlanFor returns the fault plan for the nth accepted connection under
// seed. It is the whole schedule: deterministic, stateless, identical
// across processes and runs.
//
// Half of all connections are healthy; the other half split evenly across
// the four fault kinds, with trigger points and durations drawn from the
// same stream. Refusals are deliberately rarer than their slot (a refused
// connection does zero protocol work, so back-to-back refusals would only
// test the dialer): one in eight.
func PlanFor(seed int64, n int) Plan {
	r := splitmix64(uint64(seed) ^ splitmix64(uint64(n)))
	aux := splitmix64(r)
	switch r % 8 {
	case 0:
		return Plan{Kind: Refuse}
	case 1:
		return Plan{Kind: DropAfter, AfterBytes: 64 + int(aux%4096)}
	case 2:
		return Plan{Kind: Stall, AfterBytes: 32 + int(aux%1024), Delay: time.Duration(100+aux%300) * time.Millisecond}
	case 3:
		return Plan{Kind: DelayWrites, Delay: time.Duration(1+aux%5) * time.Millisecond}
	default:
		return Plan{Kind: None}
	}
}

// Listener wraps an inner listener, imposing PlanFor(seed, i) on the ith
// accepted connection. Safe for concurrent Accept.
type Listener struct {
	inner net.Listener
	seed  int64

	mu sync.Mutex
	n  int
}

// Wrap returns ln with the seed's fault schedule imposed on every accepted
// connection.
func Wrap(ln net.Listener, seed int64) *Listener {
	return &Listener{inner: ln, seed: seed}
}

// Accepted reports how many connections have been accepted so far: a
// finished run used PlanFor(seed, i) for every i below it.
func (l *Listener) Accepted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.inner.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	plan := PlanFor(l.seed, l.n)
	l.n++
	l.mu.Unlock()
	if plan.Kind == Refuse {
		// Refusal happens here, not at dial: the server owns the listener,
		// so the dialer's connect has already succeeded against the kernel
		// backlog. Closing now is exactly what a freshly-dead agent behind
		// a live port looks like. The closed conn is still handed to the
		// server, whose first read fails like any dropped peer.
		conn.Close()
	}
	return &faultConn{Conn: conn, plan: plan}, nil
}

func (l *Listener) Close() error   { return l.inner.Close() }
func (l *Listener) Addr() net.Addr { return l.inner.Addr() }

// faultConn applies a write-side fault plan. Reads pass through: the
// interesting faults tear the agent's responses, and a torn request is
// equivalent to a torn response one layer down anyway.
type faultConn struct {
	net.Conn
	plan Plan

	mu      sync.Mutex
	written int
	stalled bool
	dropped bool
}

func (c *faultConn) Write(b []byte) (int, error) {
	switch c.plan.Kind {
	case DropAfter:
		c.mu.Lock()
		if c.dropped {
			c.mu.Unlock()
			return 0, fmt.Errorf("faultnet: connection dropped after %d bytes", c.plan.AfterBytes)
		}
		allowed := c.plan.AfterBytes - c.written
		drop := allowed < len(b)
		if drop {
			if allowed < 0 {
				allowed = 0
			}
			b = b[:allowed]
			c.dropped = true
		}
		c.written += len(b)
		c.mu.Unlock()
		n, err := c.Conn.Write(b)
		if drop && err == nil {
			c.Conn.Close()
			err = fmt.Errorf("faultnet: connection dropped after %d bytes", c.plan.AfterBytes)
		}
		return n, err
	case Stall:
		c.mu.Lock()
		c.written += len(b)
		fire := !c.stalled && c.written >= c.plan.AfterBytes
		if fire {
			c.stalled = true
		}
		c.mu.Unlock()
		if fire {
			time.Sleep(c.plan.Delay)
		}
		return c.Conn.Write(b)
	case DelayWrites:
		time.Sleep(c.plan.Delay)
		return c.Conn.Write(b)
	default:
		return c.Conn.Write(b)
	}
}
