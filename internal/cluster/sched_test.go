package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// The work-stealing scheduler's core contract: whatever mix of deliveries,
// failures and re-dispatches happens, every point is delivered exactly once
// and none are lost. Simulated agents randomly fail chunks (requeueing
// them) and randomly die; a reliable "local" worker guarantees progress —
// the topology of a worker list with one in-process worker.
func TestSchedulerNeverLosesOrDuplicatesPoints(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 1 + rng.Intn(40)
		costs := make([]float64, n)
		for i := range costs {
			costs[i] = rng.Float64() * 10
		}
		flaky := 1 + rng.Intn(4)
		s := newScheduler(costs, flaky+1)

		var mu sync.Mutex
		deliveredCount := make(map[int]int)
		deliver := func(pts []int) {
			byPoint := make(map[int][][]string, len(pts))
			for _, p := range pts {
				byPoint[p] = [][]string{{fmt.Sprint(p)}}
			}
			s.deliver(byPoint)
			mu.Lock()
			for _, p := range pts {
				deliveredCount[p]++
			}
			mu.Unlock()
		}

		var wg sync.WaitGroup
		// Flaky agents: each chunk has a 40% chance of failing (requeue);
		// each agent dies entirely after a random number of chunks.
		for a := 0; a < flaky; a++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				life := 1 + r.Intn(6)
				for {
					pts := s.take(1 + r.Intn(3))
					if pts == nil {
						return
					}
					if r.Float64() < 0.4 {
						s.requeue(pts)
						if life--; life <= 0 {
							s.workerGone()
							return
						}
						continue
					}
					deliver(pts)
				}
			}(int64(trial*100 + a))
		}
		// Reliable worker (an in-process worker).
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				pts := s.take(1)
				if pts == nil {
					return
				}
				deliver(pts)
			}
		}()
		wg.Wait()

		byPoint, err := s.result()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(byPoint) != n {
			t.Fatalf("trial %d: %d of %d points in result", trial, len(byPoint), n)
		}
		for p := 0; p < n; p++ {
			if _, ok := byPoint[p]; !ok {
				t.Fatalf("trial %d: point %d lost", trial, p)
			}
			// A point can only be taken by one agent at a time and is never
			// requeued after delivery, so each must be evaluated exactly once.
			if deliveredCount[p] != 1 {
				t.Fatalf("trial %d: point %d evaluated %d times, want exactly once",
					trial, p, deliveredCount[p])
			}
		}
	}
}

// A duplicate delivery (re-dispatch race: two agents finish the same
// point) must merge exactly once — the scheduler keeps the first result.
func TestSchedulerDeduplicatesRedispatchRace(t *testing.T) {
	s := newScheduler([]float64{1, 1}, 2)
	pts := s.take(2)
	if len(pts) != 2 {
		t.Fatalf("take(2) = %v", pts)
	}
	first := map[int][][]string{0: {{"first"}}, 1: {{"r1"}}}
	if fresh := s.deliver(first); fresh != 2 {
		t.Fatalf("first delivery counted %d fresh points, want 2", fresh)
	}
	dup := map[int][][]string{0: {{"second"}}}
	if fresh := s.deliver(dup); fresh != 0 {
		t.Fatalf("duplicate delivery counted %d fresh points, want 0", fresh)
	}
	byPoint, err := s.result()
	if err != nil {
		t.Fatal(err)
	}
	if byPoint[0][0][0] != "first" {
		t.Errorf("duplicate overwrote the first result: %q", byPoint[0][0][0])
	}
}

// requeue must not resurrect a point that was delivered while the failing
// chunk was in flight.
func TestSchedulerRequeueSkipsDelivered(t *testing.T) {
	s := newScheduler([]float64{5, 1}, 2)
	a := s.take(1) // costliest first: point 0
	if len(a) != 1 || a[0] != 0 {
		t.Fatalf("take = %v, want [0]", a)
	}
	b := s.take(1)
	if len(b) != 1 || b[0] != 1 {
		t.Fatalf("take = %v, want [1]", b)
	}
	s.deliver(map[int][][]string{0: {{"done"}}})
	// Agent that held point 0 fails anyway (e.g. its next write broke).
	if n := s.requeue(a); n != 0 {
		t.Errorf("requeue resurrected %d delivered point(s)", n)
	}
	s.deliver(map[int][][]string{1: {{"done"}}})
	if _, err := s.result(); err != nil {
		t.Fatal(err)
	}
}

// take hands out the costliest pending work first — the rule that keeps a
// slow agent from being handed the biggest point late in the sweep.
func TestSchedulerTakesCostliestFirst(t *testing.T) {
	s := newScheduler([]float64{1, 9, 3, 7}, 1)
	want := [][]int{{1}, {3}, {2}, {0}}
	for i, w := range want {
		got := s.take(1)
		if len(got) != 1 || got[0] != w[0] {
			t.Fatalf("take #%d = %v, want %v", i, got, w)
		}
	}
}
