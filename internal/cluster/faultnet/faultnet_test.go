package faultnet

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// The whole point of faultnet: the schedule is a pure function of (seed,
// connection index), bit-for-bit reproducible across calls and processes.
func TestScheduleDeterministic(t *testing.T) {
	for n := 0; n < 256; n++ {
		if a, b := PlanFor(7, n), PlanFor(7, n); a != b {
			t.Fatalf("PlanFor(7, %d) unstable: %v vs %v", n, a, b)
		}
	}
	differ := false
	for n := 0; n < 64; n++ {
		differ = differ || PlanFor(7, n) != PlanFor(8, n)
	}
	if !differ {
		t.Error("seeds 7 and 8 produced identical schedules over 64 connections")
	}
}

// Every fault kind must appear somewhere in a modest window, or the chaos
// mode is quietly testing less than it claims.
func TestScheduleCoversAllKinds(t *testing.T) {
	seen := map[Kind]bool{}
	for n := 0; n < 512; n++ {
		seen[PlanFor(3, n).Kind] = true
	}
	for _, k := range []Kind{None, Refuse, DropAfter, Stall, DelayWrites} {
		if !seen[k] {
			t.Errorf("kind %v never scheduled in 512 connections", k)
		}
	}
}

// pipeServer runs a server loop over a wrapped loopback listener, writing
// payload to every accepted connection, and returns the dial address.
func pipeServer(t *testing.T, seed int64, payload []byte) (*Listener, string) {
	t.Helper()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := Wrap(inner, seed)
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				conn.Write(payload)
				conn.Close()
			}()
		}
	}()
	return ln, inner.Addr().String()
}

// readAll dials addr and reads until EOF or error, returning the bytes.
func readAll(t *testing.T, addr string) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	data, _ := io.ReadAll(conn)
	return data
}

// findSeedConn scans the schedule for the first connection index with the
// wanted kind under a seed, skipping seeds whose early connections disturb
// the count (only index 0 is usable: each dial consumes one index).
func seedWithFirstConn(t *testing.T, want Kind) int64 {
	t.Helper()
	for seed := int64(1); seed < 4096; seed++ {
		if PlanFor(seed, 0).Kind == want {
			return seed
		}
	}
	t.Fatalf("no seed < 4096 schedules %v on connection 0", want)
	return 0
}

func TestRefuseDropsPeerImmediately(t *testing.T) {
	seed := seedWithFirstConn(t, Refuse)
	payload := bytes.Repeat([]byte("x"), 1<<16)
	_, addr := pipeServer(t, seed, payload)
	if got := readAll(t, addr); len(got) == len(payload) {
		t.Fatalf("refused connection delivered the full %d-byte payload", len(payload))
	}
}

func TestDropAfterSeversMidStream(t *testing.T) {
	seed := seedWithFirstConn(t, DropAfter)
	plan := PlanFor(seed, 0)
	payload := bytes.Repeat([]byte("x"), plan.AfterBytes*2+1024)
	_, addr := pipeServer(t, seed, payload)
	got := readAll(t, addr)
	if len(got) >= len(payload) {
		t.Fatalf("drop-after connection delivered all %d bytes", len(payload))
	}
	if len(got) > plan.AfterBytes {
		t.Fatalf("connection delivered %d bytes past its %d-byte drop point", len(got), plan.AfterBytes)
	}
}

func TestDelayWritesStillDelivers(t *testing.T) {
	seed := seedWithFirstConn(t, DelayWrites)
	payload := []byte("hello chaos\n")
	_, addr := pipeServer(t, seed, payload)
	if got := readAll(t, addr); !bytes.Equal(got, payload) {
		t.Fatalf("delayed connection corrupted payload: %q", got)
	}
}

func TestStallDeliversAfterPause(t *testing.T) {
	seed := seedWithFirstConn(t, Stall)
	plan := PlanFor(seed, 0)
	payload := bytes.Repeat([]byte("x"), plan.AfterBytes+512)
	_, addr := pipeServer(t, seed, payload)
	t0 := time.Now()
	got := readAll(t, addr)
	if !bytes.Equal(got, payload) {
		t.Fatalf("stalled connection lost data: got %d bytes, want %d", len(got), len(payload))
	}
	if elapsed := time.Since(t0); elapsed < plan.Delay/2 {
		t.Errorf("stall of %v completed in %v — fault not applied", plan.Delay, elapsed)
	}
}

func TestAcceptedCounts(t *testing.T) {
	// A healthy seed-0 connection keeps this focused on the counter.
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := Wrap(inner, 1)
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	for i := 0; i < 3; i++ {
		conn, err := net.Dial("tcp", inner.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	<-done
	if got := ln.Accepted(); got != 3 {
		t.Fatalf("Accepted() = %d after 3 connections", got)
	}
}
