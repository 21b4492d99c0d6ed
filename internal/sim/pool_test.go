package sim

import "testing"

// Steady-state scheduling must not allocate: events come from the free
// list, the queue has warmed-up capacity, and the callback is pre-built.
func TestScheduleRunZeroAlloc(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	// Warm up the pool and the queue's backing array.
	for i := 0; i < 64; i++ {
		k.Schedule(Duration(i)*Microsecond, "warm", fn)
	}
	k.Run()

	allocs := testing.AllocsPerRun(1000, func() {
		k.Schedule(10*Microsecond, "steady", fn)
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Schedule+Run allocates %v/op, want 0", allocs)
	}
}

func TestScheduleCancelZeroAlloc(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	for i := 0; i < 64; i++ {
		k.Schedule(Duration(i)*Microsecond, "warm", fn)
	}
	k.Run()

	allocs := testing.AllocsPerRun(1000, func() {
		tm := k.Schedule(10*Microsecond, "steady", fn)
		k.Cancel(tm)
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Schedule+Cancel allocates %v/op, want 0", allocs)
	}
}

func TestScheduleArgZeroAlloc(t *testing.T) {
	k := NewKernel()
	type payload struct{ hits int }
	p := &payload{}
	// The cursor form: one event re-queueing itself over four reserved seqs.
	var seq0 uint64
	var cursor func(any)
	cursor = func(x any) {
		p := x.(*payload)
		if p.hits++; p.hits < 4 {
			k.ScheduleArgSeq(k.Now().Add(Microsecond), seq0+uint64(p.hits), "cursor", cursor, p)
		}
	}
	run := func() {
		p.hits = 0
		seq0 = k.ReserveSeq(4)
		k.ScheduleArgSeq(k.Now(), seq0, "cursor", cursor, p)
		k.Run()
	}
	run() // warm up the pool and the queue's backing array
	allocs := testing.AllocsPerRun(1000, run)
	if allocs != 0 || p.hits != 4 {
		t.Fatalf("steady-state cursor allocates %v/op over %d edges, want 0 over 4", allocs, p.hits)
	}
}

// Cancelled events must not accumulate in the queue: once they exceed half
// the queue they are reaped, and Pending never counts them.
func TestCancelledEventsReaped(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	var timers []Timer
	for i := 0; i < 1000; i++ {
		timers = append(timers, k.Schedule(Duration(i+1)*Microsecond, "t", fn))
	}
	if k.Pending() != 1000 {
		t.Fatalf("Pending = %d, want 1000", k.Pending())
	}
	for _, tm := range timers {
		k.Cancel(tm)
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d after cancelling everything, want 0", k.Pending())
	}
	if len(k.heap) > 520 {
		t.Fatalf("queue still holds %d events after mass cancel, want reaped (<= half)", len(k.heap))
	}
	k.Run()
	if k.Processed() != 0 {
		t.Fatalf("processed %d cancelled events", k.Processed())
	}
}

// A Timer handle must go inert after its event fires, even when the Event
// object is recycled for a new schedule.
func TestStaleTimerHandleIsInert(t *testing.T) {
	k := NewKernel()
	fired := 0
	old := k.Schedule(1*Microsecond, "old", func() { fired++ })
	k.Run()
	if old.Scheduled() {
		t.Fatal("fired event still reports scheduled")
	}
	// The recycled Event is reused here; the stale handle must not see it.
	fresh := k.Schedule(1*Microsecond, "fresh", func() { fired++ })
	if old.Scheduled() {
		t.Fatal("stale handle reports the recycled event as its own")
	}
	k.Cancel(old) // must NOT cancel the fresh event
	if !fresh.Scheduled() {
		t.Fatal("stale Cancel killed a recycled live event")
	}
	k.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

// Reaping mid-run must preserve execution order exactly.
func TestReapPreservesOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	var cancels []Timer
	for i := 0; i < 200; i++ {
		i := i
		if i%2 == 0 {
			k.Schedule(Duration(i+1)*Microsecond, "keep", func() { got = append(got, i) })
		} else {
			cancels = append(cancels, k.Schedule(Duration(i+1)*Microsecond, "drop", func() { got = append(got, -i) }))
		}
	}
	for _, tm := range cancels {
		k.Cancel(tm)
	}
	k.Run()
	if len(got) != 100 {
		t.Fatalf("ran %d events, want 100", len(got))
	}
	for j := 1; j < len(got); j++ {
		if got[j] <= got[j-1] {
			t.Fatalf("order violated at %d: %v", j, got[j-1:j+1])
		}
	}
}

func BenchmarkSchedulePooled(b *testing.B) {
	k := NewKernel()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Schedule(Duration(i%1000)*Microsecond, "bench", fn)
		if k.Pending() > 10000 {
			k.Run()
		}
	}
	k.Run()
}
