package cluster

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// scheduler is the coordinator's work-stealing core: a cost-ordered pool of
// unfinished grid points that agents pull chunks from, with exactly-once
// delivery accounting. All methods are safe for concurrent use.
//
// Invariants (pinned by the scheduler property tests):
//   - a point is pending, in flight (taken, in neither set below), or
//     delivered — never two at once;
//   - deliver records the first result for a point and discards any later
//     duplicate, so a re-dispatched point merges exactly once;
//   - requeue returns only undelivered points to the pool, so a chunk that
//     partially raced a re-dispatch cannot resurrect finished work.
type scheduler struct {
	mu   sync.Mutex
	cond *sync.Cond

	costs     []float64
	pending   []int // cost-descending; take pops from the front
	delivered map[int][][]string

	total   int
	workers int // live workers; take fails when none remain and work does
	err     error

	// done closes when the sweep completes or fails; supervisors in a
	// backoff or re-probe sleep select on it so a finished sweep never
	// waits out their timers.
	done       chan struct{}
	doneClosed bool

	// ewmaNsPerCost is the learned wall-clock cost model: nanoseconds per
	// unit of Grid cost hint, an exponentially weighted mean over completed
	// chunks. samples counts observations; the model is not trusted (and
	// expectNs returns 0) until it has a few.
	ewmaNsPerCost float64
	samples       int
}

func newScheduler(costs []float64, workers int) *scheduler {
	s := &scheduler{
		costs:     costs,
		delivered: make(map[int][][]string, len(costs)),
		total:     len(costs),
		workers:   workers,
		done:      make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	// Seed the pool cost-descending (stable on index for determinism).
	for p := range costs {
		s.insertLocked(p)
	}
	if s.total == 0 {
		s.closeDoneLocked()
	}
	return s
}

// closeDoneLocked closes the done channel exactly once. Callers hold mu.
func (s *scheduler) closeDoneLocked() {
	if !s.doneClosed {
		s.doneClosed = true
		close(s.done)
	}
}

// prefill records points completed by an earlier run (a checkpoint) as
// delivered before any worker starts: they leave the pending pool and the
// merge sees their journaled rows. Returns the number of points absorbed.
func (s *scheduler) prefill(done map[int][][]string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for p, rows := range done {
		if p < 0 || p >= s.total {
			continue // OpenCheckpoint already range-checked; belt and braces
		}
		if _, dup := s.delivered[p]; dup {
			continue
		}
		s.delivered[p] = rows
		n++
	}
	if n > 0 {
		kept := s.pending[:0]
		for _, p := range s.pending {
			if _, ok := s.delivered[p]; !ok {
				kept = append(kept, p)
			}
		}
		s.pending = kept
	}
	if len(s.delivered) == s.total {
		s.closeDoneLocked()
	}
	return n
}

// insertLocked places p into pending keeping cost-descending order, ties on
// ascending index.
func (s *scheduler) insertLocked(p int) {
	i := 0
	for ; i < len(s.pending); i++ {
		q := s.pending[i]
		if s.costs[p] > s.costs[q] || (s.costs[p] == s.costs[q] && p < q) {
			break
		}
	}
	s.pending = append(s.pending, 0)
	copy(s.pending[i+1:], s.pending[i:])
	s.pending[i] = p
}

// take blocks until work is available and returns up to max of the
// costliest pending points, marking them in flight. It returns nil when the
// sweep is complete or has failed — callers must then exit their loop.
func (s *scheduler) take(max int) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.err != nil || len(s.delivered) == s.total {
			return nil
		}
		if len(s.pending) > 0 {
			break
		}
		if s.workers == 0 {
			// Every worker is gone, nothing is pending, and the sweep is
			// not complete: the in-flight points of the last dead worker
			// were requeued before it decremented, so this means no worker
			// remains to run them.
			s.err = fmt.Errorf("cluster: all agents failed with %d of %d points unfinished",
				s.total-len(s.delivered), s.total)
			s.closeDoneLocked()
			s.cond.Broadcast()
			return nil
		}
		s.cond.Wait()
	}
	if max < 1 {
		max = 1
	}
	if max > len(s.pending) {
		max = len(s.pending)
	}
	pts := make([]int, max)
	copy(pts, s.pending[:max])
	s.pending = s.pending[:copy(s.pending, s.pending[max:])]
	obs.Cluster.QueueDepth.Set(int64(len(s.pending)))
	return pts
}

// deliver records a chunk's results. Points already delivered (a completed
// re-dispatch race) are discarded; the return value counts the points this
// call newly completed.
func (s *scheduler) deliver(byPoint map[int][][]string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	fresh := 0
	for p, rows := range byPoint {
		if _, dup := s.delivered[p]; dup {
			continue
		}
		s.delivered[p] = rows
		fresh++
	}
	obs.Cluster.PointsDelivered.Add(uint64(fresh))
	if len(s.delivered) == s.total {
		s.closeDoneLocked()
	}
	s.cond.Broadcast()
	return fresh
}

// requeue returns a failed chunk's undelivered points to the pool. The
// count of points actually requeued is returned (delivered ones stay done).
func (s *scheduler) requeue(pts []int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, p := range pts {
		if _, done := s.delivered[p]; done {
			continue
		}
		s.insertLocked(p)
		n++
	}
	if n > 0 {
		obs.Cluster.Redispatched.Add(uint64(n))
		obs.Cluster.QueueDepth.Set(int64(len(s.pending)))
	}
	s.cond.Broadcast()
	return n
}

// workerGone records a worker's permanent exit after a failure.
func (s *scheduler) workerGone() {
	s.mu.Lock()
	s.workers--
	s.cond.Broadcast()
	s.mu.Unlock()
}

// workerBack re-admits a worker that had permanently failed but came back
// (the coordinator's dead-agent re-probe succeeded).
func (s *scheduler) workerBack() {
	s.mu.Lock()
	s.workers++
	s.cond.Broadcast()
	s.mu.Unlock()
}

// fail aborts the sweep with a fatal error (first error wins).
func (s *scheduler) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.closeDoneLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// finished reports whether the sweep has completed or failed.
func (s *scheduler) finished() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// waitOr sleeps for d or until the sweep finishes, whichever is first; it
// returns false when the sweep is over (callers must stop retrying).
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

// costOf sums the cost hints of a chunk's points.
func (s *scheduler) costOf(pts []int) float64 {
	c := 0.0
	for _, p := range pts {
		if p >= 0 && p < len(s.costs) {
			c += s.costs[p]
		}
	}
	return c
}

// observe feeds one completed chunk into the cost model: elapsed wall time
// (coordinator-side, so network round-trip is priced in) per unit of cost
// hint, EWMA-smoothed (alpha 0.3) across chunks from every agent.
func (s *scheduler) observe(cost float64, elapsed time.Duration) {
	if cost <= 0 || elapsed <= 0 {
		return
	}
	sample := float64(elapsed.Nanoseconds()) / cost
	s.mu.Lock()
	if s.samples == 0 {
		s.ewmaNsPerCost = sample
	} else {
		s.ewmaNsPerCost = 0.7*s.ewmaNsPerCost + 0.3*sample
	}
	s.samples++
	s.mu.Unlock()
}

// expectNs predicts a chunk's wall time from the learned model, or 0 when
// the model has fewer than three observations and cannot be trusted yet.
func (s *scheduler) expectNs(cost float64) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.samples < 3 || cost <= 0 {
		return 0
	}
	return time.Duration(s.ewmaNsPerCost * cost)
}

// result returns the delivered point map and the sweep error, if any.
func (s *scheduler) result() (map[int][][]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return nil, s.err
	}
	if len(s.delivered) != s.total {
		return nil, fmt.Errorf("cluster: %d of %d points delivered", len(s.delivered), s.total)
	}
	return s.delivered, nil
}
