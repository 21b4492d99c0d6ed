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
	// dialAttempts bounds the connection attempts per (re)connect cycle.
	// Attempts back off exponentially from timing.retryBackoff with
	// deterministic ±50% jitter seeded by timing.seed, so simultaneous
	// coordinator restarts do not thundering-herd a recovering agent.
	dialAttempts = 3
	// maxStrikes bounds consecutive fruitless reconnect cycles (no point
	// served) before a once-live worker is abandoned for good.
	maxStrikes = 8
)

// timings is the coordinator's clockwork. No command sets any of it: the
// package value below is what every run uses, and tests that need faults to
// cost milliseconds replace it whole.
type timings struct {
	// heartbeatEvery / heartbeatTimeout tune dead-agent detection. A missed
	// heartbeat kills the agent's work connection, which requeues its
	// in-flight point.
	heartbeatEvery, heartbeatTimeout time.Duration
	// dialTimeout bounds each individual connection attempt.
	dialTimeout time.Duration
	// retryBackoff is the base delay between connection attempts (doubling
	// per attempt).
	retryBackoff time.Duration
	// readmitEvery is how often a worker that was connected and then died is
	// re-probed for re-admission. Workers that never connected at all are
	// abandoned after their first failed dial cycle — re-probing only makes
	// sense for nodes known to have existed.
	readmitEvery time.Duration
	// deadlineFactor cancels a point whose wall time exceeds factor × its
	// expected cost under the learned ns-per-cost model (see
	// scheduler.observe), floored by minDeadline so noisy estimates of cheap
	// points cannot cancel healthy work. The cancelled point is
	// re-dispatched; the worker is treated as failed transiently and may
	// reconnect.
	deadlineFactor float64
	minDeadline    time.Duration
	// seed fixes the backoff-jitter randomness: two runs retry on the same
	// schedule.
	seed int64
}

var timing = timings{
	heartbeatEvery:   200 * time.Millisecond,
	heartbeatTimeout: 2 * time.Second,
	dialTimeout:      5 * time.Second,
	retryBackoff:     100 * time.Millisecond,
	readmitEvery:     time.Second,
	deadlineFactor:   8,
	minDeadline:      2 * time.Second,
	seed:             1,
}

// AgentStats is one worker's contribution to a run.
type AgentStats struct {
	Addr   string
	Points int
	Rows   int
	// Failed marks a worker that died at least once mid-run (its completed
	// points still count above; its in-flight point was re-dispatched, and
	// it may have been re-admitted later).
	Failed bool
	// Readmitted counts successful reconnects after a failure.
	Readmitted int
}

// add folds b into a.
func (a *AgentStats) add(b AgentStats) {
	a.Points += b.Points
	a.Rows += b.Rows
	a.Failed = a.Failed || b.Failed
	a.Readmitted += b.Readmitted
}

// Result is what a run has to say beside its tables: worker failure was
// never a property of an experiment.
type Result struct {
	Agents []AgentStats
	// Redispatched counts points that had to be returned to the queue after
	// a worker failure or a deadline (0 on a healthy run).
	Redispatched int
	// Resumed counts points loaded from the checkpoint instead of being
	// evaluated (0 without CheckpointPath or on a fresh run).
	Resumed int
}

// Coordinator evaluates a list of experiments on its worker list with
// cost-weighted work stealing: workers pull the first unfinished point in
// (experiment, cost descending) order, so fast workers naturally absorb more
// of a skewed grid, a slow or dead one never straggles the run, and nobody
// idles while one experiment's last points finish. See the package
// documentation for the fault tolerance, exactly-once merge and
// checkpoint/resume contract.
type Coordinator struct {
	// Workers lists who evaluates points: any mix of InProcess,
	// Subprocesses and Remote workers. A run with an in-process worker
	// cannot fail for lack of workers; one without fails loudly when every
	// worker is dead.
	Workers []*Worker
	// Quick selects the quick-mode grids.
	Quick bool
	// CheckpointPath, when set, journals every verified point of the run to
	// this file (internal/sweep checkpoint format) and resumes from it:
	// completed points found in the journal are re-validated, skipped, and
	// merged from their journaled rows, byte-identical to re-evaluation.
	CheckpointPath string
	// Logf reports worker failures, re-dispatches, re-admissions and
	// checkpoint resume/truncation events (nil silences).
	Logf func(format string, args ...any)

	// stepDelay throttles every worker between points (tests only: it holds
	// a run open long enough to kill the coordinator mid-run).
	stepDelay time.Duration
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
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

// run is the state of one Run that its supervisors share.
type run struct {
	*Coordinator
	exps []*harness.Experiment
	s    *scheduler
	cp   *sweep.Checkpoint // nil without CheckpointPath
}

// Run evaluates every experiment's grid on the worker list and hands emit
// each merged table — byte-identical to exps[i].Run(quick) — in list order,
// each as soon as it and every table before it is complete. Links to the
// workers are opened when first needed and closed before Run returns.
func (c *Coordinator) Run(exps []*harness.Experiment, emit func(i int, t *stats.Table)) (*Result, error) {
	if len(c.Workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers")
	}
	grids := make([]*harness.Grid, len(exps))
	costs := make([][]float64, len(exps))
	sizes := make(map[string]int, len(exps))
	for i, e := range exps {
		grids[i] = e.Grid(c.Quick)
		costs[i] = grids[i].Costs()
		sizes[e.ID] = grids[i].N
	}

	r := &run{Coordinator: c, exps: exps}
	res := &Result{}
	var done []map[int][][]string
	if c.CheckpointPath != "" {
		cp, byExp, torn, err := sweep.OpenCheckpoint(c.CheckpointPath, c.Quick, sizes)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		defer cp.Close()
		r.cp = cp
		if torn > 0 {
			c.logf("cluster: checkpoint %s: truncated %d byte(s) of torn tail", c.CheckpointPath, torn)
		}
		done = make([]map[int][][]string, len(exps))
		for i, e := range exps {
			done[i] = byExp[e.ID]
			res.Resumed += len(done[i])
		}
		if res.Resumed > 0 {
			c.logf("cluster: resumed %d completed point(s) from checkpoint %s", res.Resumed, c.CheckpointPath)
		}
	}
	r.s = newScheduler(costs, done)

	var (
		mu sync.Mutex // guards res roll-up fields
		wg sync.WaitGroup
	)
	for _, w := range c.Workers {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			st, redispatched := r.supervise(w)
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
	go func() {
		wg.Wait()
		r.s.orphaned()
	}()
	for i, g := range grids {
		rows, err := r.s.await(i)
		if err != nil {
			break
		}
		table, err := sweep.Merge(g.Table, g.N, []map[int][][]string{rows})
		if err != nil {
			r.s.fail(fmt.Errorf("cluster: %s: %w", exps[i].ID, err))
			break
		}
		emit(i, table)
	}
	wg.Wait()
	// Asked last: a journal append can fail after the last table is out.
	if err := r.s.failure(); err != nil {
		return nil, err
	}
	sort.Slice(res.Agents, func(i, j int) bool { return res.Agents[i].Addr < res.Agents[j].Addr })
	return res, nil
}

// supervise owns one worker for the whole run: it opens the worker's link
// with jittered exponential backoff, serves points until the link (or what
// is behind it) fails, classifies the failure, and — for workers that had
// been live — periodically re-probes and re-admits them. It returns when
// the run finishes or the worker is abandoned for good. Every worker is
// dialled at least once, and one that never connects ends failed even when
// the run finishes first. In-process links neither fail to open nor fail a
// point, so for them this is the plain take-evaluate-deliver loop.
func (r *run) supervise(w *Worker) (AgentStats, int) {
	s := r.s
	st := AgentStats{Addr: w.name}
	redispatched := 0
	rng := rand.New(rand.NewSource(timing.seed ^ addrSeed(w.name)))
	everConnected := false
	strikes := 0

	abandon := func(why error) (AgentStats, int) {
		st.Failed = true
		r.logf("cluster: agent %s abandoned (%v)", w.name, why)
		return st, redispatched
	}

	for {
		l, err := r.openBackoff(w, rng)
		if err != nil {
			if !everConnected {
				// Never part of the fleet: no reason to believe it exists,
				// even when the run finished while it was being dialled.
				return abandon(err)
			}
			if s.finished() {
				return st, redispatched
			}
			strikes++
			if strikes >= maxStrikes {
				return abandon(fmt.Errorf("%d fruitless reconnect cycles: %w", strikes, err))
			}
			st.Failed = true
			r.logf("cluster: agent %s still down (%v); re-probing in %v", w.name, err, timing.readmitEvery)
			if !s.waitOr(timing.readmitEvery) {
				return st, redispatched
			}
			continue
		}
		if everConnected {
			st.Readmitted++
			obs.ClusterAgent(w.name).Readmits.Inc()
			r.logf("cluster: agent %s came back; re-admitted to the fleet", w.name)
		}
		everConnected = true

		served, n, serveErr := r.serve(&st, l)
		l.close()
		if serveErr == nil {
			return st, redispatched // run complete
		}
		redispatched += n
		st.Failed = true
		r.logf("cluster: agent %s failed (%v); %d in-flight point(s) re-dispatched", w.name, serveErr, n)
		if errors.Is(serveErr, errFatalAgent) {
			return st, redispatched
		}
		if served > 0 {
			strikes = 0
		} else if strikes++; strikes >= maxStrikes {
			return abandon(fmt.Errorf("%d fruitless reconnect cycles", strikes))
		}
		if !s.waitOr(timing.readmitEvery) {
			return st, redispatched
		}
	}
}

// addrSeed derives a per-worker jitter stream from its name so workers
// sharing the seed still retry on distinct schedules.
func addrSeed(addr string) int64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	return int64(h.Sum64())
}

// openBackoff attempts to open the worker's link up to dialAttempts times
// with jittered exponential backoff, giving up early when the run finishes.
func (r *run) openBackoff(w *Worker, rng *rand.Rand) (link, error) {
	var lastErr error
	delay := timing.retryBackoff
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			obs.ClusterAgent(w.name).Retries.Inc()
			// ±50% deterministic jitter.
			jittered := delay/2 + time.Duration(rng.Int63n(int64(delay)))
			if !r.s.waitOr(jittered) {
				return nil, lastErr
			}
			delay *= 2
		}
		l, err := w.open()
		if err == nil {
			return l, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// serve drives one live link: points pulled, evaluated under a deadline and
// delivered until the run completes (nil error) or the link fails. The number
// of points served and of points a failure sent back to the queue (0 or 1)
// are returned alongside the error. A fresh point is journaled to the checkpoint
// (when one is open) before the next is taken, so the journal never gets
// ahead of or behind the merge by more than the point in flight.
func (r *run) serve(st *AgentStats, l link) (served, requeued int, err error) {
	s := r.s
	ab := obs.ClusterAgent(st.Addr)
	for {
		j, ok := s.take()
		if !ok {
			return served, 0, nil
		}
		e := r.exps[j.exp]
		t0 := time.Now()
		rows, err := l.run(e, r.Quick, j.point, pointLimit(s.expectNs(j)))
		if err != nil {
			if s.requeue(j) {
				requeued = 1
			}
			return served, requeued, err
		}
		if s.deliver(j, rows) && r.cp != nil {
			if err := r.cp.Append(e.ID, j.point, rows); err != nil {
				// A checkpoint that cannot journal breaks the resume
				// guarantee; fail the run loudly rather than complete
				// un-resumably.
				s.fail(err)
				return served, 0, err
			}
		}
		st.Points++
		st.Rows += len(rows)
		elapsed := time.Since(t0)
		ab.Chunks.Inc()
		ab.ChunkLatency.Observe(uint64(elapsed))
		s.observe(j, elapsed)
		served++
		if r.stepDelay > 0 {
			time.Sleep(r.stepDelay)
		}
	}
}

// pointLimit is a point's deadline: timing.deadlineFactor × its expected
// wall time, floored by timing.minDeadline; 0 (none) while the cost model
// is untrusted.
func pointLimit(expect time.Duration) time.Duration {
	limit := time.Duration(timing.deadlineFactor * float64(expect))
	if limit > 0 && limit < timing.minDeadline {
		limit = timing.minDeadline
	}
	return limit
}
