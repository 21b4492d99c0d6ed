package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/sim"
)

func TestHeaderRoundTrip(t *testing.T) {
	if err := quick.Check(func(flow uint32, seq uint64, at int64) bool {
		if at < 0 {
			at = -at
		}
		buf := make([]byte, HeaderLen)
		EncodeHeader(buf, Header{FlowID: flow, Seq: seq, SentAt: sim.Time(at)})
		h, ok := DecodeHeader(buf)
		return ok && h.FlowID == flow && h.Seq == seq && h.SentAt == sim.Time(at)
	}, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := DecodeHeader(make([]byte, 5)); ok {
		t.Error("short payload decoded")
	}
}

func TestCBRSpacing(t *testing.T) {
	k := sim.NewKernel()
	var times []sim.Time
	NewCBR(k, 1, 100, 10*sim.Millisecond, func(p []byte) bool {
		times = append(times, k.Now())
		return true
	})
	k.RunUntil(sim.Time(95 * sim.Millisecond))
	if len(times) != 10 { // t=0 through t=90ms
		t.Fatalf("CBR emitted %d packets, want 10", len(times))
	}
	for i := 1; i < len(times); i++ {
		if gap := times[i].Sub(times[i-1]); gap != 10*sim.Millisecond {
			t.Errorf("gap %d = %v", i, gap)
		}
	}
}

func TestCBRStops(t *testing.T) {
	k := sim.NewKernel()
	n := 0
	g := NewCBR(k, 1, 100, sim.Millisecond, func(p []byte) bool { n++; return true })
	k.RunUntil(sim.Time(10 * sim.Millisecond))
	g.Stop()
	k.RunUntil(sim.Time(100 * sim.Millisecond))
	if n > 12 {
		t.Errorf("generator kept running after Stop: %d", n)
	}
}

func TestPoissonRate(t *testing.T) {
	k := sim.NewKernel()
	n := 0
	NewPoisson(k, 1, 100, 1000, rng.New(1), func(p []byte) bool { n++; return true })
	k.RunUntil(sim.Time(10 * sim.Second))
	// Expect ~10000 arrivals; 5 sigma ≈ 500.
	if math.Abs(float64(n)-10000) > 500 {
		t.Errorf("Poisson emitted %d in 10s at 1000/s", n)
	}
}

func TestPoissonInterarrivalCV(t *testing.T) {
	// Coefficient of variation of exponential gaps is 1.
	k := sim.NewKernel()
	var last sim.Time
	var gaps []float64
	NewPoisson(k, 1, 100, 500, rng.New(2), func(p []byte) bool {
		now := k.Now()
		if last > 0 {
			gaps = append(gaps, now.Sub(last).Seconds())
		}
		last = now
		return true
	})
	k.RunUntil(sim.Time(20 * sim.Second))
	var sum, sumSq float64
	for _, g := range gaps {
		sum += g
		sumSq += g * g
	}
	mean := sum / float64(len(gaps))
	std := math.Sqrt(sumSq/float64(len(gaps)) - mean*mean)
	cv := std / mean
	if math.Abs(cv-1) > 0.1 {
		t.Errorf("interarrival CV = %v, want ~1 (exponential)", cv)
	}
}

func TestSaturatorBackpressure(t *testing.T) {
	k := sim.NewKernel()
	q := &scriptQueue{k: k, capacity: 50}
	g := NewSaturator(k, 1, 200, q.send, q)
	// Drain 10 per millisecond.
	k.Ticker(sim.Millisecond, "drain", func() { q.drain(10) })
	k.RunUntil(sim.Time(100 * sim.Millisecond))
	g.Stop()
	if g.Sent() < 500 {
		t.Errorf("saturator only pushed %d accepted packets", g.Sent())
	}
	if g.Refused == 0 {
		t.Error("saturator never hit backpressure")
	}
	if g.Refused != q.drops || q.settled == 0 {
		t.Errorf("refused %d, queue counted %d drops (%d settled while parked)", g.Refused, q.drops, q.settled)
	}
}

func TestSinkLatencyAndLoss(t *testing.T) {
	k := sim.NewKernel()
	sink := NewSink(k)

	deliver := func(seq uint64, sentAt, now sim.Time) {
		payload := make([]byte, 100)
		EncodeHeader(payload, Header{FlowID: 7, Seq: seq, SentAt: sentAt})
		k.ScheduleAt(now, "rx", func() { sink.Deliver(payload) })
	}
	// 8 of 10 delivered (2 lost), each with 5 ms latency.
	for i := uint64(0); i < 10; i++ {
		if i == 3 || i == 6 {
			continue
		}
		sent := sim.Time(i) * sim.Time(10*sim.Millisecond)
		deliver(i, sent, sent.Add(5*sim.Millisecond))
	}
	k.Run()

	f := sink.Flow(7)
	if f == nil {
		t.Fatal("flow missing")
	}
	if f.Received != 8 {
		t.Errorf("received = %d", f.Received)
	}
	if math.Abs(f.LossRatio()-0.2) > 1e-9 {
		t.Errorf("loss = %v, want 0.2", f.LossRatio())
	}
	if math.Abs(f.Latency.Mean()-0.005) > 1e-9 {
		t.Errorf("mean latency = %v, want 5ms", f.Latency.Mean())
	}
	if sink.TotalBytes() != 800 {
		t.Errorf("total bytes = %d, want 800", sink.TotalBytes())
	}
}

func TestSinkDetectsDuplicatesAndReorder(t *testing.T) {
	k := sim.NewKernel()
	sink := NewSink(k)
	push := func(seq uint64) {
		payload := make([]byte, 64)
		EncodeHeader(payload, Header{FlowID: 1, Seq: seq, SentAt: 0})
		sink.Deliver(payload)
	}
	push(0)
	push(2)
	push(1) // out of order
	push(2) // duplicate
	f := sink.Flow(1)
	if f.Received != 3 {
		t.Errorf("received = %d, want 3", f.Received)
	}
	if f.Duplicates != 1 {
		t.Errorf("dups = %d", f.Duplicates)
	}
	if f.OutOfOrder != 1 {
		t.Errorf("ooo = %d", f.OutOfOrder)
	}
}

func TestSinkUnparsed(t *testing.T) {
	k := sim.NewKernel()
	sink := NewSink(k)
	sink.Deliver([]byte{1, 2, 3})
	if sink.Unparsed != 1 {
		t.Errorf("unparsed = %d", sink.Unparsed)
	}
}

func TestMinimumPayloadSize(t *testing.T) {
	k := sim.NewKernel()
	got := 0
	NewCBR(k, 1, 1 /* below header size */, sim.Millisecond, func(p []byte) bool {
		got = len(p)
		return true
	})
	k.RunUntil(sim.Time(2 * sim.Millisecond))
	if got < HeaderLen {
		t.Errorf("payload %d below header size", got)
	}
}
