package cluster

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// LocalAgentName labels the in-process workers in per-worker stats; however
// many there are, they share the one entry.
const LocalAgentName = "local"

// Scheduling constants no command and no test ever varied.
const (
	// chunkPoints is the number of points a worker pulls per request: 1 is
	// the finest-grained stealing and re-dispatch.
	chunkPoints = 1
	// dialAttempts bounds the connection attempts per (re)connect cycle.
	// Attempts back off exponentially from RetryBackoff with deterministic
	// ±50% jitter seeded by Seed, so simultaneous coordinator restarts do
	// not thundering-herd a recovering agent.
	dialAttempts = 3
	// maxStrikes bounds consecutive fruitless reconnect cycles (no chunk
	// served) before a once-live worker is abandoned for good.
	maxStrikes = 8
)

// AgentStats is one worker's contribution to a sweep, rolled up from the
// chunks it delivered.
type AgentStats struct {
	Addr   string
	Chunks int
	Points int
	Rows   int
	// Failed marks a worker that died at least once mid-sweep (its
	// completed chunks still count above; its in-flight points were
	// re-dispatched, and it may have been re-admitted later).
	Failed bool
	// Readmitted counts successful reconnects after a failure.
	Readmitted int
}

// add folds b into a.
func (a *AgentStats) add(b AgentStats) {
	a.Chunks += b.Chunks
	a.Points += b.Points
	a.Rows += b.Rows
	a.Failed = a.Failed || b.Failed
	a.Readmitted += b.Readmitted
}

// Result is one experiment's merged cluster sweep.
type Result struct {
	Table  *stats.Table
	Agents []AgentStats
	// Redispatched counts points that had to be returned to the pool after
	// an agent failure or a chunk deadline (0 on a healthy sweep).
	Redispatched int
	// Resumed counts points loaded from the checkpoint instead of being
	// evaluated (0 without CheckpointPath or on a fresh run).
	Resumed int
}

// Coordinator evaluates a sweep on its worker list with cost-weighted work
// stealing: workers pull the costliest unfinished chunk next, so fast
// workers naturally absorb more of a skewed grid and a slow or dead one
// never straggles the sweep. See the package documentation for the fault
// tolerance, exactly-once merge and checkpoint/resume contract.
type Coordinator struct {
	// Workers lists who evaluates chunks: any mix of InProcess,
	// Subprocesses and Remote workers. A sweep with an in-process worker
	// cannot fail for lack of workers; one without fails loudly when every
	// worker is dead.
	Workers []*Worker
	// Quick selects the quick-mode grid.
	Quick bool
	// HeartbeatEvery / HeartbeatTimeout tune dead-agent detection
	// (defaults 200ms / 2s). A missed heartbeat kills the agent's work
	// connection, which requeues its in-flight chunk. A configured timeout
	// that does not exceed the interval cannot ever observe a pong in
	// time; Run clamps it to 4× the interval with a logged warning instead
	// of silently misbehaving.
	HeartbeatEvery   time.Duration
	HeartbeatTimeout time.Duration
	// DialTimeout bounds each individual connection attempt (default 5s).
	DialTimeout time.Duration
	// RetryBackoff is the base delay between connection attempts (default
	// 100ms, doubling per attempt).
	RetryBackoff time.Duration
	// ReadmitEvery is how often a fleet member that was connected and then
	// died is re-probed for re-admission (default 1s). Agents that never
	// connected at all are abandoned after their first failed dial cycle —
	// re-probing only makes sense for nodes known to have existed.
	ReadmitEvery time.Duration
	// ChunkDeadlineFactor cancels a chunk whose wall time exceeds factor ×
	// its expected cost under the learned ns-per-cost model (EWMA over
	// completed chunks, trusted after 3 observations). The cancelled
	// chunk's points are re-dispatched; the agent is treated as failed
	// transiently and may reconnect. Default 8; negative disables.
	ChunkDeadlineFactor float64
	// MinChunkDeadline floors the per-chunk deadline so noisy estimates of
	// cheap points cannot cancel healthy work (default 2s).
	MinChunkDeadline time.Duration
	// CheckpointPath, when set, journals every verified chunk to this file
	// (internal/sweep checkpoint format) and resumes from it: completed
	// points found in the journal are re-validated, skipped, and merged
	// from their journaled rows, byte-identical to re-evaluation.
	CheckpointPath string
	// Seed fixes the backoff-jitter randomness (default 1): two runs with
	// the same seed retry on the same schedule.
	Seed int64
	// Logf reports agent failures, re-dispatches, re-admissions and
	// checkpoint resume/truncation events (nil silences).
	Logf func(format string, args ...any)

	// stepDelay throttles every worker between chunks (tests only: it
	// holds a sweep open long enough to kill the coordinator mid-run).
	stepDelay time.Duration
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

func (c *Coordinator) heartbeatEvery() time.Duration {
	if c.HeartbeatEvery <= 0 {
		return 200 * time.Millisecond
	}
	return c.HeartbeatEvery
}

func (c *Coordinator) heartbeatTimeout() time.Duration {
	every := c.heartbeatEvery()
	t := c.HeartbeatTimeout
	if t <= 0 {
		t = 2 * time.Second
	}
	if t <= every {
		// A timeout that cannot outlast one interval would declare every
		// agent dead on its first ping; clamp rather than misbehave. Run
		// logs the clamp once up front.
		t = 4 * every
	}
	return t
}

// heartbeatMisconfigured reports whether the configured heartbeat values
// needed clamping (see heartbeatTimeout).
func (c *Coordinator) heartbeatMisconfigured() bool {
	return c.HeartbeatTimeout > 0 && c.HeartbeatTimeout <= c.heartbeatEvery()
}

func (c *Coordinator) dialTimeout() time.Duration {
	if c.DialTimeout <= 0 {
		return 5 * time.Second
	}
	return c.DialTimeout
}

func (c *Coordinator) retryBackoff() time.Duration {
	if c.RetryBackoff <= 0 {
		return 100 * time.Millisecond
	}
	return c.RetryBackoff
}

func (c *Coordinator) readmitEvery() time.Duration {
	if c.ReadmitEvery <= 0 {
		return time.Second
	}
	return c.ReadmitEvery
}

func (c *Coordinator) chunkDeadlineFactor() float64 {
	if c.ChunkDeadlineFactor < 0 {
		return 0 // disabled
	}
	if c.ChunkDeadlineFactor == 0 {
		return 8
	}
	return c.ChunkDeadlineFactor
}

func (c *Coordinator) minChunkDeadline() time.Duration {
	if c.MinChunkDeadline <= 0 {
		return 2 * time.Second
	}
	return c.MinChunkDeadline
}

func (c *Coordinator) seed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// errFatalAgent marks errors that prove the agent is answering wrongly
// (experiment skew, malformed-but-framed responses, explicit agent error
// lines). Reconnecting cannot fix those, so the supervisor abandons the
// worker instead of retrying. Everything else — dial or spawn failures,
// connection loss, a dead subprocess, deadlines — is transient.
var errFatalAgent = errors.New("fatal agent error")

func fatalAgent(err error) error {
	return fmt.Errorf("%w: %v", errFatalAgent, err)
}

// Run evaluates the experiment's grid on the worker list and merges the
// results into a table byte-identical to e.Run(quick). Runs of one
// Coordinator must not overlap; call Close after the last one.
func (c *Coordinator) Run(e *harness.Experiment) (*Result, error) {
	if len(c.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers")
	}
	if c.heartbeatMisconfigured() {
		c.logf("cluster: HeartbeatTimeout %v <= HeartbeatEvery %v can never observe a pong; clamping timeout to %v",
			c.HeartbeatTimeout, c.heartbeatEvery(), c.heartbeatTimeout())
	}
	g := e.Grid(c.Quick)
	s := newScheduler(g.Costs(), len(c.Workers))

	res := &Result{}

	var cp *sweep.Checkpoint
	if c.CheckpointPath != "" {
		var done map[int][][]string
		var torn int
		var err error
		cp, done, torn, err = sweep.OpenCheckpoint(c.CheckpointPath, e.ID, c.Quick, g.N)
		if err != nil {
			return nil, fmt.Errorf("cluster: %s: %w", e.ID, err)
		}
		defer cp.Close()
		if torn > 0 {
			c.logf("cluster: checkpoint %s: truncated %d byte(s) of torn tail", c.CheckpointPath, torn)
		}
		if n := s.prefill(done); n > 0 {
			res.Resumed = n
			c.logf("cluster: resumed %d completed point(s) from checkpoint %s", n, c.CheckpointPath)
		}
	}

	var (
		mu sync.Mutex // guards res roll-up fields
		wg sync.WaitGroup
	)
	for _, w := range c.Workers {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			st, redispatched := c.supervise(e, s, cp, w)
			mu.Lock()
			defer mu.Unlock()
			res.Redispatched += redispatched
			for i := range res.Agents {
				if res.Agents[i].Addr == st.Addr {
					res.Agents[i].add(st)
					return
				}
			}
			res.Agents = append(res.Agents, st)
		}(w)
	}
	wg.Wait()

	byPoint, err := s.result()
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", e.ID, err)
	}
	table, err := sweep.Merge(g.Table, g.N, []map[int][][]string{byPoint})
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", e.ID, err)
	}
	sort.Slice(res.Agents, func(i, j int) bool { return res.Agents[i].Addr < res.Agents[j].Addr })
	res.Table = table
	return res, nil
}

// Close stops the subprocess workers the last Run left running for the
// next one.
func (c *Coordinator) Close() {
	for _, w := range c.Workers {
		if w.kept != nil {
			w.kept.close()
			w.kept = nil
		}
	}
}

// supervise owns one worker for the whole sweep: it opens the worker's
// link with jittered exponential backoff, serves chunks until the link (or
// what is behind it) fails, classifies the failure, and — for workers that
// had been live — periodically re-probes and re-admits them. It returns
// when the sweep finishes or the worker is abandoned for good. In-process
// links neither fail to open nor fail a chunk, so for them this is the
// plain take-evaluate-deliver loop.
func (c *Coordinator) supervise(e *harness.Experiment, s *scheduler, cp *sweep.Checkpoint, w *Worker) (AgentStats, int) {
	st := AgentStats{Addr: w.name}
	redispatched := 0
	rng := rand.New(rand.NewSource(c.seed() ^ addrSeed(w.name)))
	everConnected := false
	strikes := 0
	// holdsSlot tracks whether this supervisor currently counts toward the
	// scheduler's live-worker total (it does from construction); releasing
	// the slot while disconnected is what lets a sweep with no other live
	// workers fail loudly instead of waiting on a re-probe forever.
	holdsSlot := true

	abandon := func(why error) (AgentStats, int) {
		st.Failed = true
		if holdsSlot {
			s.workerGone()
		}
		c.logf("cluster: agent %s abandoned (%v)", w.name, why)
		return st, redispatched
	}

	for {
		if s.finished() {
			return st, redispatched
		}
		l := w.kept
		w.kept = nil
		var err error
		if l == nil {
			l, err = c.openBackoff(w, s, rng)
		}
		if err != nil {
			if s.finished() {
				return st, redispatched
			}
			if !everConnected {
				// Never part of the fleet: no reason to believe it exists.
				return abandon(err)
			}
			strikes++
			if strikes >= maxStrikes {
				return abandon(fmt.Errorf("%d fruitless reconnect cycles: %w", strikes, err))
			}
			st.Failed = true
			c.logf("cluster: agent %s still down (%v); re-probing in %v", w.name, err, c.readmitEvery())
			if !s.waitOr(c.readmitEvery()) {
				return st, redispatched
			}
			continue
		}
		if !holdsSlot {
			s.workerBack()
			holdsSlot = true
		}
		if everConnected {
			st.Readmitted++
			obs.ClusterAgent(w.name).Readmits.Inc()
			c.logf("cluster: agent %s came back; re-admitted to the fleet", w.name)
		}
		everConnected = true

		served, n, serveErr := c.serve(e, s, cp, &st, l)
		redispatched += n
		if serveErr == nil {
			// Sweep complete.
			if w.persistent {
				w.kept = l
			} else {
				l.close()
			}
			return st, redispatched
		}
		l.close()
		st.Failed = true
		c.logf("cluster: agent %s failed (%v); %d in-flight point(s) re-dispatched", w.name, serveErr, n)
		s.workerGone()
		if errors.Is(serveErr, errFatalAgent) {
			return st, redispatched
		}
		holdsSlot = false
		if served > 0 {
			strikes = 0
		} else if strikes++; strikes >= maxStrikes {
			return abandon(fmt.Errorf("%d fruitless reconnect cycles", strikes))
		}
		if !s.waitOr(c.readmitEvery()) {
			return st, redispatched
		}
	}
}

// addrSeed derives a per-worker jitter stream from its name so workers
// sharing a coordinator seed still retry on distinct schedules.
func addrSeed(addr string) int64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	return int64(h.Sum64())
}

// openBackoff attempts to open the worker's link up to dialAttempts times
// with jittered exponential backoff, giving up early when the sweep
// finishes.
func (c *Coordinator) openBackoff(w *Worker, s *scheduler, rng *rand.Rand) (link, error) {
	var lastErr error
	delay := c.retryBackoff()
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			obs.ClusterAgent(w.name).Retries.Inc()
			// ±50% deterministic jitter.
			jittered := delay/2 + time.Duration(rng.Int63n(int64(delay)))
			if !s.waitOr(jittered) {
				return nil, lastErr
			}
			delay *= 2
		}
		l, err := w.open(c)
		if err == nil {
			return l, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// serve drives one live link: chunks pulled, evaluated under a deadline
// and validated until the sweep completes (nil error) or the link fails.
// The number of chunks served and the points requeued by a failure are
// returned alongside the error.
func (c *Coordinator) serve(e *harness.Experiment, s *scheduler, cp *sweep.Checkpoint, st *AgentStats, l link) (served, requeued int, err error) {
	ab := obs.ClusterAgent(st.Addr)
	for {
		pts := s.take(chunkPoints)
		if pts == nil {
			return served, 0, nil
		}
		t0 := time.Now()
		byPoint, err := l.run(e, c.Quick, pts, c.chunkLimit(s, pts))
		if err == nil {
			err = c.acceptChunk(s, cp, st, pts, byPoint)
		}
		if err != nil {
			return served, s.requeue(pts), err
		}
		elapsed := time.Since(t0)
		ab.Chunks.Inc()
		ab.ChunkLatency.Observe(uint64(elapsed))
		s.observe(s.costOf(pts), elapsed)
		served++
		if c.stepDelay > 0 {
			time.Sleep(c.stepDelay)
		}
	}
}

// chunkLimit is the chunk's deadline: factor × its expected cost under the
// learned ns-per-cost EWMA, floored by MinChunkDeadline; 0 (none) while the
// model is untrusted or deadlines are disabled.
func (c *Coordinator) chunkLimit(s *scheduler, pts []int) time.Duration {
	expect := s.expectNs(s.costOf(pts))
	if expect <= 0 {
		return 0
	}
	limit := time.Duration(c.chunkDeadlineFactor() * float64(expect))
	if limit > 0 && limit < c.minChunkDeadline() {
		limit = c.minChunkDeadline()
	}
	return limit
}

// acceptChunk checks that a chunk's result covers exactly the requested
// point set and delivers the rows. Verified chunks are journaled to the
// checkpoint (when one is open) before the call returns, so the journal
// never gets ahead of or behind the merge by more than the chunk in flight.
func (c *Coordinator) acceptChunk(s *scheduler, cp *sweep.Checkpoint, st *AgentStats, pts []int, byPoint map[int][][]string) error {
	if len(byPoint) != len(pts) {
		return fatalAgent(fmt.Errorf("agent returned %d points, requested %d", len(byPoint), len(pts)))
	}
	for _, p := range pts {
		if _, ok := byPoint[p]; !ok {
			return fatalAgent(fmt.Errorf("agent response missing requested point %d", p))
		}
	}
	chunkStats := sweep.ShardStats{Points: len(byPoint)}
	for _, rows := range byPoint {
		chunkStats.Rows += len(rows)
	}
	fresh := s.deliver(byPoint)
	if cp != nil && fresh > 0 {
		if err := cp.AppendChunk(byPoint, chunkStats); err != nil {
			// A checkpoint that cannot journal breaks the resume guarantee;
			// fail the sweep loudly rather than complete un-resumably.
			s.fail(err)
			return err
		}
	}
	st.add(AgentStats{Chunks: 1, Points: chunkStats.Points, Rows: chunkStats.Rows})
	return nil
}
