package ether

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/sim"
)

var (
	hostA = frame.MACAddr{2, 0, 0, 0, 0, 1}
	hostB = frame.MACAddr{2, 0, 0, 0, 0, 2}
	hostC = frame.MACAddr{2, 0, 0, 0, 0, 3}
)

func TestFloodThenLearn(t *testing.T) {
	k := sim.NewKernel()
	sw := NewSwitch(k, 0)
	var rx [3][]Frame
	ports := make([]*Port, 3)
	for i := range ports {
		i := i
		ports[i] = sw.AddPort(func(f Frame) { rx[i] = append(rx[i], f) })
	}

	ports[0].Send(Frame{Dst: hostB, Src: hostA, Payload: []byte("x")})
	k.Run()
	// Unknown unicast floods to 1 and 2, never back to 0.
	if len(rx[0]) != 0 || len(rx[1]) != 1 || len(rx[2]) != 1 {
		t.Fatalf("flood: %d %d %d", len(rx[0]), len(rx[1]), len(rx[2]))
	}

	ports[1].Send(Frame{Dst: hostA, Src: hostB, Payload: []byte("y")})
	k.Run()
	// hostA was learned on port 0: direct delivery.
	if len(rx[0]) != 1 || len(rx[2]) != 1 {
		t.Fatalf("learned delivery: %d %d %d", len(rx[0]), len(rx[1]), len(rx[2]))
	}
}

func TestBroadcastAlwaysFloods(t *testing.T) {
	k := sim.NewKernel()
	sw := NewSwitch(k, 0)
	got := 0
	sw.AddPort(func(Frame) { got++ })
	sw.AddPort(func(Frame) { got++ })
	src := sw.AddPort(func(Frame) { got += 100 }) // must not self-deliver
	for i := 0; i < 3; i++ {
		src.Send(Frame{Dst: frame.Broadcast, Src: hostA, Payload: []byte("b")})
	}
	k.Run()
	if got != 6 {
		t.Fatalf("broadcast deliveries = %d, want 6", got)
	}
}

func TestForwardingLatency(t *testing.T) {
	k := sim.NewKernel()
	sw := NewSwitch(k, 250*sim.Microsecond)
	var at sim.Time
	sw.AddPort(func(Frame) { at = k.Now() })
	src := sw.AddPort(func(Frame) {})
	k.Schedule(sim.Millisecond, "send", func() {
		src.Send(Frame{Dst: frame.Broadcast, Src: hostA, Payload: []byte("x")})
	})
	k.Run()
	want := sim.Time(sim.Millisecond + 250*sim.Microsecond)
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestZeroLatencyStillAsync(t *testing.T) {
	// Even with zero latency, delivery must not reenter the sender's call
	// stack (a frame sent from within a receive callback would otherwise
	// recurse).
	k := sim.NewKernel()
	sw := NewSwitch(k, 0)
	delivered := false
	inSend := true
	sw.AddPort(func(Frame) {
		if inSend {
			t.Error("delivery reentered the sender's stack")
		}
		delivered = true
	})
	src := sw.AddPort(func(Frame) {})
	k.Schedule(0, "send", func() {
		inSend = true
		src.Send(Frame{Dst: frame.Broadcast, Src: hostA, Payload: []byte("x")})
		inSend = false
	})
	k.Run()
	if !delivered {
		t.Fatal("frame lost")
	}
}

func TestRelearnMovesStation(t *testing.T) {
	// A roaming station's address moves from one port to another when its
	// new AP sends a frame from it into the DS (what an AP does after
	// association).
	k := sim.NewKernel()
	sw := NewSwitch(k, 0)
	var rx [2][]Frame
	ports := make([]*Port, 2)
	for i := range ports {
		i := i
		ports[i] = sw.AddPort(func(f Frame) { rx[i] = append(rx[i], f) })
	}
	host := sw.AddPort(func(Frame) {})

	// hostC is first learned behind port 0.
	ports[0].Send(Frame{Dst: hostA, Src: hostC, Payload: []byte("hello")})
	k.Run()
	// The station roams: its first frame through port 1 relearns it.
	ports[1].Send(Frame{Dst: frame.Broadcast, Src: hostC})
	k.Run()
	host.Send(Frame{Dst: hostC, Src: hostA, Payload: []byte("to-roamed")})
	k.Run()
	if len(rx[1]) == 0 {
		t.Fatal("frame did not follow the relearned port")
	}
	for _, f := range rx[0] {
		if string(f.Payload) == "to-roamed" {
			t.Fatal("frame delivered to the stale port")
		}
	}
}

func TestCounters(t *testing.T) {
	k := sim.NewKernel()
	sw := NewSwitch(k, 0)
	p0 := sw.AddPort(func(Frame) {})
	sw.AddPort(func(Frame) {})
	p0.Send(Frame{Dst: hostB, Src: hostA, Payload: []byte("1")}) // flood
	k.Run()
	if sw.Flooded != 1 || sw.Forwarded != 0 {
		t.Fatalf("counters after flood: fwd=%d flood=%d", sw.Forwarded, sw.Flooded)
	}
}
