package sim

import "testing"

// Regression test for the cancel → schedule-same-tick → run interleaving.
// Event A and event B share a timestamp. A cancels B and schedules a
// replacement C at the same tick. B must not fire (no double delivery), C
// must fire exactly once, and the clock must still be at T when it does.
func TestCancelRescheduleSameTickExactlyOnce(t *testing.T) {
	k := NewKernel()
	const T = Time(500)

	fired := map[string]int{}
	var b Timer
	k.ScheduleAt(T, "a", func() {
		fired["a"]++
		if !b.Scheduled() {
			t.Fatal("B should still be Scheduled before the cancel")
		}
		k.Cancel(b)
		if b.Scheduled() {
			t.Fatal("B still Scheduled after cancel")
		}
		k.ScheduleAt(T, "c", func() {
			if k.Now() != T {
				t.Fatalf("C ran at %v, want %v", k.Now(), T)
			}
			fired["c"]++
		})
	})
	b = k.ScheduleAt(T, "b", func() { fired["b"]++ })
	k.ScheduleAt(T+1, "after", func() {
		if fired["c"] != 1 {
			t.Fatalf("C fired %d times before the clock advanced, want 1", fired["c"])
		}
	})
	k.Run()

	if fired["a"] != 1 || fired["b"] != 0 || fired["c"] != 1 {
		t.Fatalf("fired = %v, want a:1 b:0 c:1", fired)
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", k.Pending())
	}
	if k.Processed() != 3 {
		t.Fatalf("Processed = %d, want 3 (a, c, after)", k.Processed())
	}
}

// The symmetric interleaving: the cancelled same-tick event's Timer is
// reused for a fresh schedule at the same tick. The recycled Event object
// must not leak the old cancel flag or deliver under the old identity.
func TestCancelThenNewTimerSameTick(t *testing.T) {
	k := NewKernel()
	const T = Time(500)

	var events []string
	var victim Timer
	k.ScheduleAt(T, "killer", func() {
		events = append(events, "killer")
		k.Cancel(victim)
		victim = k.ScheduleAt(T, "reborn", func() { events = append(events, "reborn") })
		if !victim.Scheduled() {
			t.Fatal("rescheduled timer not Scheduled")
		}
	})
	victim = k.ScheduleAt(T, "victim", func() { events = append(events, "victim") })
	k.Run()

	if len(events) != 2 || events[0] != "killer" || events[1] != "reborn" {
		t.Fatalf("events = %v, want [killer reborn]", events)
	}
}
