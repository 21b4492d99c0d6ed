package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// job is the unit of work: one grid point of one experiment of the run.
type job struct {
	exp   int // index into the run's experiment list
	point int
}

// sweepState is what the scheduler knows of one experiment of the run.
type sweepState struct {
	costs []float64
	// rows holds the delivered points; it is handed to the merge and dropped
	// once every point is in (await).
	rows map[int][][]string
	left int // points not yet delivered

	// ewmaNsPerCost is the learned wall-clock cost model: nanoseconds per
	// unit of Grid cost hint, an exponentially weighted mean over completed
	// points. Cost hints are ratios within one grid, so the model is per
	// experiment; it is not trusted (expectNs returns 0) until it has a few
	// samples.
	ewmaNsPerCost float64
	samples       int
}

// scheduler is the coordinator's work-stealing core: one queue over the
// (experiment, point) jobs of a run that workers pull from, with
// exactly-once delivery accounting. All methods are safe for concurrent use.
//
// Invariants (pinned by the scheduler property tests):
//   - pending is ordered by (experiment, cost descending, point ascending),
//     so a worker is handed a later experiment's point only when every
//     earlier experiment has nothing pending — and then at once, not after
//     the earlier one drains;
//   - a job is pending, in flight (taken, neither pending nor delivered), or
//     delivered — never two at once;
//   - deliver records the first result for a job and discards any later
//     duplicate, so a re-dispatched point merges exactly once;
//   - requeue returns only an undelivered job to the queue, so a point that
//     raced a re-dispatch cannot resurrect finished work.
type scheduler struct {
	mu   sync.Mutex
	cond *sync.Cond

	sweeps  []sweepState
	pending []job // take pops from the front

	total int
	left  int // jobs not yet delivered, over all sweeps
	err   error

	// done closes when the run completes or fails; supervisors in a backoff
	// or re-probe sleep select on it so a finished run never waits out their
	// timers.
	done chan struct{}
}

// newScheduler queues every point of every grid except those already in
// done (rows loaded from a checkpoint, indexed like costs; nil for none),
// which count as delivered before any worker starts.
func newScheduler(costs [][]float64, done []map[int][][]string) *scheduler {
	s := &scheduler{
		sweeps: make([]sweepState, len(costs)),
		done:   make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	for i, c := range costs {
		sw := &s.sweeps[i]
		sw.costs = c
		sw.rows = make(map[int][][]string, len(c))
		var have map[int][][]string
		if done != nil {
			have = done[i]
		}
		for p := range c {
			if rows, ok := have[p]; ok {
				sw.rows[p] = rows
				continue
			}
			sw.left++
			s.pending = append(s.pending, job{i, p})
		}
		s.total += len(c)
		s.left += sw.left
	}
	sort.Slice(s.pending, func(a, b int) bool { return s.before(s.pending[a], s.pending[b]) })
	if s.left == 0 {
		close(s.done)
	}
	return s
}

// before is the queue order.
func (s *scheduler) before(a, b job) bool {
	if a.exp != b.exp {
		return a.exp < b.exp
	}
	if ca, cb := s.sweeps[a.exp].costs[a.point], s.sweeps[b.exp].costs[b.point]; ca != cb {
		return ca > cb
	}
	return a.point < b.point
}

// finishLocked closes done exactly once. Callers hold mu and broadcast.
func (s *scheduler) finishLocked() {
	if !s.finished() {
		close(s.done)
	}
}

// take blocks until a job is pending and returns the first in queue order,
// marking it in flight. ok is false when the run is complete or has failed —
// callers must then exit their loop.
func (s *scheduler) take() (j job, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.pending) == 0 {
		if s.err != nil || s.left == 0 {
			return job{}, false
		}
		s.cond.Wait()
	}
	if s.err != nil {
		return job{}, false
	}
	j = s.pending[0]
	s.pending = s.pending[:copy(s.pending, s.pending[1:])]
	obs.Cluster.QueueDepth.Set(int64(len(s.pending)))
	return j, true
}

// deliver records a job's rows and reports whether this call completed the
// job; a job already delivered (a completed re-dispatch race) is discarded.
func (s *scheduler) deliver(j job, rows [][]string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := &s.sweeps[j.exp]
	if _, dup := sw.rows[j.point]; dup || sw.left == 0 { // left == 0: rows already handed to the merge
		return false
	}
	sw.rows[j.point] = rows
	sw.left--
	s.left--
	obs.Cluster.PointsDelivered.Inc()
	if s.left == 0 {
		s.finishLocked()
	}
	s.cond.Broadcast()
	return true
}

// requeue returns a failed job to the queue and reports whether it did (a
// job delivered meanwhile stays done).
func (s *scheduler) requeue(j job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := &s.sweeps[j.exp]
	if _, done := sw.rows[j.point]; done || sw.left == 0 {
		return false
	}
	i := sort.Search(len(s.pending), func(i int) bool { return s.before(j, s.pending[i]) })
	s.pending = append(s.pending, job{})
	copy(s.pending[i+1:], s.pending[i:])
	s.pending[i] = j
	obs.Cluster.Redispatched.Inc()
	obs.Cluster.QueueDepth.Set(int64(len(s.pending)))
	s.cond.Broadcast()
	return true
}

// await blocks until every point of experiment i is delivered and returns
// its rows, which the scheduler then forgets, or until the run fails.
func (s *scheduler) await(i int) (map[int][][]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := &s.sweeps[i]
	for sw.left > 0 && s.err == nil {
		s.cond.Wait()
	}
	if sw.left > 0 {
		return nil, s.err
	}
	rows := sw.rows
	sw.rows = nil
	return rows, nil
}

// orphaned fails a run that still has work when no worker is left to do it;
// the coordinator calls it once every supervisor has returned.
func (s *scheduler) orphaned() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.left > 0 && s.err == nil {
		s.err = fmt.Errorf("cluster: all agents failed with %d of %d points unfinished", s.left, s.total)
		s.finishLocked()
		s.cond.Broadcast()
	}
}

// fail aborts the run with a fatal error (first error wins).
func (s *scheduler) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.finishLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// failure returns the error that ended the run, if one did.
func (s *scheduler) failure() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// finished reports whether the run has completed or failed.
func (s *scheduler) finished() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// waitOr sleeps for d or until the run finishes, whichever is first; it
// returns false when the run is over (callers must stop retrying).
func (s *scheduler) waitOr(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-s.done:
		return false
	case <-t.C:
		return !s.finished()
	}
}

// observe feeds one completed job into its experiment's cost model: elapsed
// wall time (coordinator-side, so network round-trip is priced in) per unit
// of cost hint, EWMA-smoothed (alpha 0.3) across points from every worker.
func (s *scheduler) observe(j job, elapsed time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := &s.sweeps[j.exp]
	cost := sw.costs[j.point]
	if cost <= 0 || elapsed <= 0 {
		return
	}
	sample := float64(elapsed.Nanoseconds()) / cost
	if sw.samples == 0 {
		sw.ewmaNsPerCost = sample
	} else {
		sw.ewmaNsPerCost = 0.7*sw.ewmaNsPerCost + 0.3*sample
	}
	sw.samples++
}

// expectNs predicts a job's wall time from its experiment's model, or 0
// when the model has fewer than three observations and cannot be trusted
// yet.
func (s *scheduler) expectNs(j job) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := &s.sweeps[j.exp]
	if sw.samples < 3 {
		return 0
	}
	return time.Duration(sw.ewmaNsPerCost * sw.costs[j.point])
}
