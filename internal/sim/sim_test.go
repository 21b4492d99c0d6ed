package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.Schedule(30*Microsecond, "c", func() { got = append(got, 3) })
	k.Schedule(10*Microsecond, "a", func() { got = append(got, 1) })
	k.Schedule(20*Microsecond, "b", func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestFIFOWithinSameInstant(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5*Microsecond, "same", func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	k := NewKernel()
	var at1, at2 Time
	k.Schedule(100*Microsecond, "t1", func() { at1 = k.Now() })
	k.Schedule(2*Millisecond, "t2", func() { at2 = k.Now() })
	k.Run()
	if at1 != Time(100*Microsecond) {
		t.Errorf("first event at %v, want 100µs", at1)
	}
	if at2 != Time(2*Millisecond) {
		t.Errorf("second event at %v, want 2ms", at2)
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	e := k.Schedule(10*Microsecond, "x", func() { fired = true })
	k.Cancel(e)
	k.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Scheduled() {
		t.Fatal("cancelled event still reports scheduled")
	}
	// Double cancel and zero-handle cancel must be safe.
	k.Cancel(e)
	k.Cancel(Timer{})
}

func TestCancelFromWithinEarlierEvent(t *testing.T) {
	k := NewKernel()
	fired := false
	var e2 Timer
	k.Schedule(10*Microsecond, "canceller", func() { k.Cancel(e2) })
	e2 = k.Schedule(20*Microsecond, "victim", func() { fired = true })
	k.Run()
	if fired {
		t.Fatal("event cancelled by earlier event still fired")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(10*Microsecond, "adv", func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.ScheduleAt(Time(1*Microsecond), "past", func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	k.Schedule(-1, "neg", func() {})
}

func TestRunUntilAdvancesClockToDeadline(t *testing.T) {
	k := NewKernel()
	k.Schedule(10*Microsecond, "e", func() {})
	k.RunUntil(Time(1 * Millisecond))
	if k.Now() != Time(1*Millisecond) {
		t.Fatalf("clock = %v, want 1ms", k.Now())
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	k := NewKernel()
	ran := 0
	k.Schedule(10*Microsecond, "in", func() { ran++ })
	k.Schedule(2*Millisecond, "out", func() { ran++ })
	k.RunUntil(Time(1 * Millisecond))
	if ran != 1 {
		t.Fatalf("ran %d events before deadline, want 1", ran)
	}
	k.Run()
	if ran != 2 {
		t.Fatalf("ran %d events total, want 2", ran)
	}
}

func TestRunForIsRelative(t *testing.T) {
	k := NewKernel()
	k.RunFor(1 * Millisecond)
	k.RunFor(1 * Millisecond)
	if k.Now() != Time(2*Millisecond) {
		t.Fatalf("clock = %v after two 1ms RunFor, want 2ms", k.Now())
	}
}

func TestStop(t *testing.T) {
	k := NewKernel()
	ran := 0
	k.Schedule(1*Microsecond, "a", func() { ran++; k.Stop() })
	k.Schedule(2*Microsecond, "b", func() { ran++ })
	k.Run()
	if ran != 1 {
		t.Fatalf("ran %d events, want 1 (stopped)", ran)
	}
	k.Run()
	if ran != 2 {
		t.Fatalf("ran %d events after resume, want 2", ran)
	}
}

// A RunUntil cut short by Stop must leave the clock at the stopping event,
// not jump it to the deadline over events still queued before it: the next
// Run used to panic with "queue yielded event in the past".
func TestStopThenRunUntilResumes(t *testing.T) {
	k := NewKernel()
	var at []Time
	k.Schedule(1*Microsecond, "a", func() { at = append(at, k.Now()); k.Stop() })
	k.Schedule(2*Microsecond, "b", func() { at = append(at, k.Now()) })
	k.RunUntil(Time(10 * Microsecond))
	if !k.Stopped() || k.Now() != Time(1*Microsecond) {
		t.Fatalf("after Stop: stopped=%v clock=%v, want true at 1µs", k.Stopped(), k.Now())
	}
	k.Run()
	if len(at) != 2 || at[1] != Time(2*Microsecond) {
		t.Fatalf("events ran at %v, want [1µs 2µs]", at)
	}
	k.RunUntil(Time(10 * Microsecond))
	if k.Now() != Time(10*Microsecond) {
		t.Fatalf("clock = %v after an unstopped RunUntil, want 10µs", k.Now())
	}
}

// CohortSizes observes maximal runs of consecutively executed events that
// share a timestamp: bucket i counts runs of length in (2^(i-1), 2^i], the
// last bucket everything above 64, and the event total is Processed. A
// same-tick event scheduled from inside a callback extends the run in
// progress; a cancelled event is not part of any run.
func TestCohortSizesRunLength(t *testing.T) {
	k := NewKernel()
	nop := func() {}
	k.ScheduleAt(10, "solo", nop)
	k.ScheduleAt(20, "a", func() { k.Schedule(0, "c", nop) }) // run of 3: a, b, c
	k.ScheduleAt(20, "b", nop)
	k.Cancel(k.ScheduleAt(20, "cancelled", nop))
	for i := 0; i < 70; i++ {
		k.ScheduleAt(30, "big", nop)
	}
	k.Run()

	buckets, events := k.CohortSizes()
	want := [8]uint64{0: 1, 2: 1, 7: 1} // runs of 1, 3 and 70
	if buckets != want {
		t.Fatalf("buckets = %v, want %v", buckets, want)
	}
	if events != 74 || events != k.Processed() {
		t.Fatalf("cohort events = %d, Processed = %d, want 74 for both", events, k.Processed())
	}

	// The accessor closed the run at t=30: one more event at the same
	// timestamp starts a new run instead of growing the run of 70.
	k.ScheduleAt(30, "late", nop)
	k.Run()
	want[0]++
	if buckets, events = k.CohortSizes(); buckets != want || events != k.Processed() {
		t.Fatalf("after a same-tick event past the snapshot: buckets = %v events = %d, want %v and %d",
			buckets, events, want, k.Processed())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Schedule(10*Microsecond, "outer", func() {
		order = append(order, "outer")
		k.Schedule(5*Microsecond, "inner", func() {
			order = append(order, "inner")
		})
	})
	k.Schedule(12*Microsecond, "mid", func() { order = append(order, "mid") })
	k.Run()
	want := []string{"outer", "mid", "inner"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestZeroDelaySelfSchedulingTerminates(t *testing.T) {
	k := NewKernel()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < 100 {
			k.Schedule(0, "zero", fn)
		}
	}
	k.Schedule(0, "zero", fn)
	k.Run()
	if n != 100 {
		t.Fatalf("zero-delay chain ran %d times, want 100", n)
	}
	if k.Now() != 0 {
		t.Fatalf("zero-delay chain advanced clock to %v", k.Now())
	}
}

func TestTicker(t *testing.T) {
	k := NewKernel()
	var ticks []Time
	cancel := k.Ticker(100*Microsecond, "tick", func() {
		ticks = append(ticks, k.Now())
	})
	k.RunUntil(Time(550 * Microsecond))
	cancel()
	k.RunUntil(Time(2 * Millisecond))
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5: %v", len(ticks), ticks)
	}
	for i, at := range ticks {
		want := Time((i + 1) * 100 * int(Microsecond))
		if at != want {
			t.Errorf("tick %d at %v, want %v", i, at, want)
		}
	}
}

func TestTickerCancelFromCallback(t *testing.T) {
	k := NewKernel()
	n := 0
	var cancel func()
	cancel = k.Ticker(10*Microsecond, "tick", func() {
		n++
		if n == 3 {
			cancel()
		}
	})
	k.Run()
	if n != 3 {
		t.Fatalf("ticker fired %d times after self-cancel at 3", n)
	}
}

func TestProcessedCounter(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 7; i++ {
		k.Schedule(Duration(i)*Microsecond, "e", func() {})
	}
	k.Run()
	if k.Processed() != 7 {
		t.Fatalf("processed = %d, want 7", k.Processed())
	}
}

func TestOnEventHook(t *testing.T) {
	k := NewKernel()
	var names []string
	k.OnEvent = func(_ Time, name string) { names = append(names, name) }
	k.Schedule(1*Microsecond, "alpha", func() {})
	k.Schedule(2*Microsecond, "beta", func() {})
	k.Run()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Fatalf("hook saw %v", names)
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the clock matches each event's scheduled time.
func TestPropertyEventOrdering(t *testing.T) {
	if err := quick.Check(func(delaysRaw []uint16) bool {
		k := NewKernel()
		var fired []Time
		for _, d := range delaysRaw {
			d := Duration(d) * Microsecond
			k.Schedule(d, "e", func() { fired = append(fired, k.Now()) })
		}
		k.Run()
		if len(fired) != len(delaysRaw) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		// The multiset of fire times must equal the multiset of delays.
		want := make([]int64, len(delaysRaw))
		for i, d := range delaysRaw {
			want[i] = int64(d) * int64(Microsecond)
		}
		got := make([]int64, len(fired))
		for i, f := range fired {
			got[i] = int64(f)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationStrings(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{1500 * Nanosecond, "1.5µs"},
		{500 * Nanosecond, "500ns"},
		{0, "0ns"},
		{20 * Microsecond, "20.0µs"},
		{3 * Millisecond, "3.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	k := NewKernel()
	for i := 0; i < b.N; i++ {
		k.Schedule(Duration(i%1000)*Microsecond, "bench", func() {})
		if k.Pending() > 10000 {
			k.Run()
		}
	}
	k.Run()
}

// TestPassed pins the question a source that skips its idle ticks asks the
// kernel: is the run loop beyond the key (at, seq)?
func TestPassed(t *testing.T) {
	k := NewKernel()
	older := k.ReserveSeq(1)
	var inside [4]bool
	k.ScheduleAt(10, "probe", func() {
		inside = [4]bool{k.Passed(9, 1<<40), k.Passed(10, older), k.Passed(10, older+5), k.Passed(11, 0)}
		k.Stop()
	})
	younger := k.ReserveSeq(1)
	if k.Passed(0, older) {
		t.Error("a fresh kernel has passed a key at its own instant")
	}
	k.RunUntil(20)
	// Earlier instant; same instant ordered before the running event; same
	// instant ordered after it; later instant.
	if want := [4]bool{true, true, false, false}; inside != want {
		t.Errorf("inside the event at (10, %d): Passed = %v, want %v", older+1, inside, want)
	}
	// Stop left the clock on the stopped event: a younger key of that
	// instant may still be queued.
	if k.Now() != 10 || !k.Passed(10, older) || k.Passed(10, younger) {
		t.Errorf("after Stop at %v: Passed(older) %v, Passed(younger) %v, want true false", k.Now(), k.Passed(10, older), k.Passed(10, younger))
	}
	k.RunUntil(20)
	if !k.Passed(20, younger) || !k.Passed(20, 1<<40) || k.Passed(21, 0) {
		t.Error("a run that reached its deadline has passed every key up to it and none beyond")
	}
	// A deadline behind the clock runs nothing and passes nothing new.
	k.ScheduleAt(20, "late", func() {})
	k.RunUntil(20)
	k.ScheduleAt(25, "next", func() { k.Stop() })
	k.RunUntil(30)
	k.RunUntil(22)
	if k.Now() != 25 || k.Passed(25, 1<<40) {
		t.Errorf("RunUntil into the past moved the kernel: now %v, Passed(25, far) %v", k.Now(), k.Passed(25, 1<<40))
	}
}
