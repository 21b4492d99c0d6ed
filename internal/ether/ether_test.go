package ether

import (
	"bytes"
	"testing"

	"repro/internal/frame"
	"repro/internal/sim"
)

// keep copies a delivered frame's payload, which is valid only during the
// rx call.
func keep(f Frame) Frame {
	f.Payload = bytes.Clone(f.Payload)
	return f
}

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
		ports[i] = sw.AddPort(func(f Frame) { rx[i] = append(rx[i], keep(f)) })
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
		ports[i] = sw.AddPort(func(f Frame) { rx[i] = append(rx[i], keep(f)) })
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

// TestSwitchOwnsPayload: a sender may reuse its payload as soon as Send
// returns, a frame forwarded from inside rx arrives intact, a nil payload
// (an AP's association announcement) stays nil and an empty one stays
// empty.
func TestSwitchOwnsPayload(t *testing.T) {
	k := sim.NewKernel()
	sw := NewSwitch(k, 0)
	var got []Frame
	sink := sw.AddPort(func(f Frame) { got = append(got, keep(f)) })
	var relay *Port
	relay = sw.AddPort(func(f Frame) {
		// Forward in place, then scribble over the view: the switch copied.
		if f.Dst == hostC {
			relay.Send(Frame{Dst: hostA, Src: hostC, Payload: f.Payload})
			clear(f.Payload)
		}
	})
	src := sw.AddPort(func(Frame) {})
	sink.Send(Frame{Dst: frame.Broadcast, Src: hostA}) // learn hostA at sink
	k.Run()

	buf := []byte("first")
	src.Send(Frame{Dst: hostA, Src: hostB, Payload: buf})
	copy(buf, "XXXXX")
	src.Send(Frame{Dst: hostA, Src: hostB, Payload: []byte{}})
	src.Send(Frame{Dst: hostA, Src: hostB})
	src.Send(Frame{Dst: hostC, Src: hostB, Payload: []byte("relayed")}) // floods: relay forwards it
	k.Run()

	want := []struct {
		payload string
		isNil   bool
	}{{"first", false}, {"", false}, {"", true}, {"relayed", false}, {"relayed", false}}
	if len(got) != len(want) {
		t.Fatalf("sink got %d frames, want %d", len(got), len(want))
	}
	for i, w := range want {
		if p := got[i].Payload; string(p) != w.payload || (p == nil) != w.isNil {
			t.Errorf("frame %d: payload %q (nil %v), want %q (nil %v)", i, p, p == nil, w.payload, w.isNil)
		}
	}
}

// TestDeliveryReusesRecords: once the free list has grown, forwarding a
// payload no larger than before allocates nothing.
func TestDeliveryReusesRecords(t *testing.T) {
	k := sim.NewKernel()
	sw := NewSwitch(k, 0)
	sw.AddPort(func(Frame) {})
	src := sw.AddPort(func(Frame) {})
	f := Frame{Dst: hostB, Src: hostA, Payload: make([]byte, 1500)}
	send := func() {
		src.Send(f)
		k.Run()
	}
	send()
	if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
		t.Errorf("%.1f allocations per forwarded frame, want 0", allocs)
	}
}
