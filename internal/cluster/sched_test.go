package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/stats"
)

// The work-stealing scheduler's core contract, over three grids at once:
// whatever mix of deliveries, failures and re-dispatches happens, every
// point of every grid is delivered exactly once and none are lost.
// Simulated agents randomly fail points (requeueing them) and randomly die;
// a reliable "local" worker guarantees progress — the topology of a worker
// list with one in-process worker.
func TestSchedulerNeverLosesOrDuplicatesPoints(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		costs := make([][]float64, 3)
		for i := range costs {
			costs[i] = make([]float64, 1+rng.Intn(20))
			for p := range costs[i] {
				costs[i][p] = rng.Float64() * 10
			}
		}
		flaky := 1 + rng.Intn(4)
		s := newScheduler(costs, nil)

		var mu sync.Mutex
		deliveredCount := make(map[job]int)
		deliver := func(j job) {
			s.deliver(j, [][]string{{fmt.Sprint(j)}})
			mu.Lock()
			deliveredCount[j]++
			mu.Unlock()
		}

		var wg sync.WaitGroup
		// Flaky agents: each point has a 40% chance of failing (requeue);
		// each agent dies entirely after a random number of failures.
		for a := 0; a < flaky; a++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				life := 1 + r.Intn(6)
				for {
					j, ok := s.take()
					if !ok {
						return
					}
					if r.Float64() < 0.4 {
						s.requeue(j)
						if life--; life <= 0 {
							return
						}
						continue
					}
					deliver(j)
				}
			}(int64(trial*100 + a))
		}
		// Reliable worker (an in-process worker).
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j, ok := s.take()
				if !ok {
					return
				}
				deliver(j)
			}
		}()
		wg.Wait()

		for i, c := range costs {
			rows, err := s.await(i)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if len(rows) != len(c) {
				t.Fatalf("trial %d: %d of %d points of grid %d in result", trial, len(rows), len(c), i)
			}
			for p := range c {
				if _, ok := rows[p]; !ok {
					t.Fatalf("trial %d: point %d of grid %d lost", trial, p, i)
				}
				// A job can only be taken by one agent at a time and is never
				// requeued after delivery, so each must be evaluated exactly
				// once.
				if n := deliveredCount[job{i, p}]; n != 1 {
					t.Fatalf("trial %d: point %d of grid %d evaluated %d times, want exactly once", trial, p, i, n)
				}
			}
		}
	}
}

// A duplicate delivery (re-dispatch race: two agents finish the same
// point) must merge exactly once — the scheduler keeps the first result,
// also once the grid's rows have gone to the merge.
func TestSchedulerDeduplicatesRedispatchRace(t *testing.T) {
	s := newScheduler([][]float64{{1, 1}}, nil)
	for range 2 {
		if _, ok := s.take(); !ok {
			t.Fatal("take refused a pending job")
		}
	}
	if !s.deliver(job{0, 0}, [][]string{{"first"}}) || !s.deliver(job{0, 1}, [][]string{{"r1"}}) {
		t.Fatal("first deliveries not counted fresh")
	}
	if s.deliver(job{0, 0}, [][]string{{"second"}}) {
		t.Fatal("duplicate delivery counted fresh")
	}
	rows, err := s.await(0)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0][0] != "first" {
		t.Errorf("duplicate overwrote the first result: %q", rows[0][0][0])
	}
	if s.deliver(job{0, 1}, [][]string{{"late"}}) || s.requeue(job{0, 1}) {
		t.Error("a job of an already merged grid was accepted again")
	}
}

// requeue must not resurrect a point that was delivered while the failing
// worker still held it.
func TestSchedulerRequeueSkipsDelivered(t *testing.T) {
	s := newScheduler([][]float64{{5, 1}}, nil)
	a, _ := s.take() // costliest first: point 0
	b, _ := s.take()
	if a != (job{0, 0}) || b != (job{0, 1}) {
		t.Fatalf("takes = %v %v, want {0 0} {0 1}", a, b)
	}
	s.deliver(a, [][]string{{"done"}})
	// Agent that held point 0 fails anyway (e.g. its next write broke).
	if s.requeue(a) {
		t.Error("requeue resurrected a delivered point")
	}
	s.deliver(b, [][]string{{"done"}})
	if _, err := s.await(0); err != nil {
		t.Fatal(err)
	}
}

// take hands out jobs in (experiment, cost descending, point ascending)
// order — the rule that keeps a slow agent from being handed the biggest
// point late — and the queue has no barrier: with an experiment fully in
// flight the next take is the next experiment's costliest point, and a
// point that comes back is handed out before anything of a later experiment.
func TestSchedulerTakesCostliestFirst(t *testing.T) {
	s := newScheduler([][]float64{{1, 9, 3, 7}, {2, 5, 5}, {1}}, nil)
	for i, want := range []job{{0, 1}, {0, 3}, {0, 2}, {0, 0}, {1, 1}} {
		// Nothing is delivered: experiment 0 is fully in flight when the
		// fifth take asks.
		if got, ok := s.take(); !ok || got != want {
			t.Fatalf("take #%d = %v, want %v", i, got, want)
		}
	}
	if !s.requeue(job{0, 2}) || !s.requeue(job{1, 1}) {
		t.Fatal("requeue refused an undelivered job")
	}
	for i, want := range []job{{0, 2}, {1, 1}, {1, 2}, {1, 0}, {2, 0}} {
		if got, ok := s.take(); !ok || got != want {
			t.Fatalf("take #%d after requeue = %v, want %v", i, got, want)
		}
	}
}

// Points a checkpoint already holds are delivered before any worker starts:
// never handed out, counted complete, merged from the journaled rows.
func TestSchedulerSkipsJournaledPoints(t *testing.T) {
	done := []map[int][][]string{{1: {{"journaled"}}}, {0: {{"j0"}}, 1: {{"j1"}}}}
	s := newScheduler([][]float64{{1, 9}, {1, 1}}, done)
	if rows, err := s.await(1); err != nil || rows[1][0][0] != "j1" {
		t.Fatalf("fully journaled grid: rows=%v err=%v", rows, err)
	}
	j, ok := s.take()
	if !ok || j != (job{0, 0}) {
		t.Fatalf("take = %v, want the one point not journaled", j)
	}
	s.deliver(j, [][]string{{"fresh"}})
	if _, ok := s.take(); ok {
		t.Error("take handed out a journaled point")
	}
	if rows, err := s.await(0); err != nil || rows[1][0][0] != "journaled" || rows[0][0][0] != "fresh" {
		t.Fatalf("partly journaled grid: rows=%v err=%v", rows, err)
	}
}

// call is one point a scriptedLink was asked to evaluate; the test answers
// on done when it wants the point to finish (nil) or fail.
type call struct {
	exp  string
	p    int
	done chan error
}

// scriptedLink blocks every point until the test lets it go.
type scriptedLink struct{ calls chan call }

func (l scriptedLink) run(e *harness.Experiment, quick bool, p int, _ time.Duration) ([][]string, error) {
	c := call{e.ID, p, make(chan error)}
	l.calls <- c
	if err := <-c.done; err != nil {
		return nil, err
	}
	return e.Grid(quick).Point(p), nil
}

func (scriptedLink) close() {}

// toyExperiment is an experiment of len(costs) instant points.
func toyExperiment(id string, costs ...float64) *harness.Experiment {
	return &harness.Experiment{ID: id, Grid: func(bool) *harness.Grid {
		return &harness.Grid{
			Table: stats.NewTable(id, "exp", "point"),
			N:     len(costs),
			Point: func(i int) [][]string { return [][]string{{id, fmt.Sprint(i)}} },
			Cost:  func(i int) float64 { return costs[i] },
		}
	}}
}

// The property the suite queue exists for, end to end through Run: a free
// worker is handed a point of experiment k+1 while experiment k has only
// in-flight points — no barrier — and never a later experiment's point while
// an earlier one has a pending point; tables still come out in list order.
func TestNoBarrierBetweenExperiments(t *testing.T) {
	tm := timing
	tm.readmitEvery = 10 * time.Millisecond
	setTiming(t, tm)

	exps := []*harness.Experiment{toyExperiment("A", 5, 1), toyExperiment("B", 1, 3), toyExperiment("C", 1)}
	calls := make(chan call)
	open := func() (link, error) { return scriptedLink{calls}, nil }
	c := &Coordinator{Workers: []*Worker{{name: "w0", open: open}, {name: "w1", open: open}}, Quick: true}

	type outcome struct {
		emitted []string
		res     *Result
		err     error
	}
	finished := make(chan outcome)
	go func() {
		var o outcome
		o.res, o.err = c.Run(exps, func(i int, table *stats.Table) {
			o.emitted = append(o.emitted, exps[i].ID+":"+table.CSV())
		})
		finished <- o
	}()
	next := func() call {
		t.Helper()
		select {
		case c := <-calls:
			return c
		case <-time.After(10 * time.Second):
			t.Fatal("no worker asked for a point: a free worker is waiting at a barrier")
			panic("unreachable")
		}
	}
	name := func(c call) string { return fmt.Sprint(c.exp, c.p) }

	// Both workers start on A, the costliest point first.
	a0, a1 := next(), next()
	if name(a0) == "A1" {
		a0, a1 = a1, a0
	}
	if name(a0) != "A0" || name(a1) != "A1" {
		t.Fatalf("first two points are %s and %s, want A0 and A1", name(a0), name(a1))
	}
	// A1 finishes; A0 is still running, so A has nothing pending. The free
	// worker must go straight to B's costliest point.
	a1.done <- nil
	b1 := next()
	if name(b1) != "B1" {
		t.Fatalf("with A fully in flight the free worker was handed %s, want B1", name(b1))
	}
	// A0's worker fails transiently: A0 is pending again, ahead of B0 and
	// C0, and whoever asks next gets it.
	a0.done <- errors.New("scripted link failure")
	if again := next(); name(again) != "A0" {
		t.Fatalf("with A0 pending a worker was handed %s", name(again))
	} else {
		again.done <- nil
	}
	b1.done <- nil
	rest := map[string]bool{}
	for range 2 {
		last := next()
		rest[name(last)] = true
		last.done <- nil
	}
	if !rest["B0"] || !rest["C0"] {
		t.Errorf("last two points are %v, want B0 and C0", rest)
	}

	o := <-finished
	if o.err != nil {
		t.Fatal(o.err)
	}
	want := []string{"A:exp,point\nA,0\nA,1\n", "B:exp,point\nB,0\nB,1\n", "C:exp,point\nC,0\n"}
	if fmt.Sprint(o.emitted) != fmt.Sprint(want) {
		t.Errorf("emitted %q, want %q", o.emitted, want)
	}
	if o.res.Redispatched != 1 {
		t.Errorf("Redispatched = %d, want the one scripted failure", o.res.Redispatched)
	}
}
