package medium

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/units"
)

// recorder captures radio events for assertions.
type recorder struct {
	frames []*frame.Frame
	infos  []RxInfo
	errors []RxInfo
	busyAt []sim.Time
	idleAt []sim.Time
	txDone int
	k      *sim.Kernel
}

func (r *recorder) OnCCABusy()         { r.busyAt = append(r.busyAt, r.k.Now()) }
func (r *recorder) OnCCAIdle()         { r.idleAt = append(r.idleAt, r.k.Now()) }
func (r *recorder) OnTxDone()          { r.txDone++ }
func (r *recorder) OnRxError(i RxInfo) { r.errors = append(r.errors, i) }
func (r *recorder) OnRxFrame(f *frame.Frame, i RxInfo) {
	// f is a pooled view valid only during the callback; keep a deep copy.
	r.frames = append(r.frames, f.Clone())
	r.infos = append(r.infos, i)
}

var (
	addrA = frame.MACAddr{2, 0, 0, 0, 0, 1}
	addrB = frame.MACAddr{2, 0, 0, 0, 0, 2}
	addrC = frame.MACAddr{2, 0, 0, 0, 0, 3}
)

// testbed builds a kernel+medium with a free-space channel at 2.4 GHz.
func testbed(seed uint64) (*sim.Kernel, *Medium) {
	k := sim.NewKernel()
	model := spectrum.NewModel(spectrum.FreeSpace{Freq: 2412 * units.MHz}, nil, nil)
	m := New(k, model, rng.New(seed))
	return k, m
}

func dataFrame(body int) *frame.Frame {
	return frame.NewData(addrB, addrA, addrC, false, false, make([]byte, body))
}

func TestDeliveryCloseRange(t *testing.T) {
	k, m := testbed(1)
	tx := m.AddRadio(RadioConfig{Name: "tx", Mode: phy.Mode80211b(), Mobility: geom.Static{P: geom.Pt(0, 0)}, TxPower: 15})
	rec := &recorder{k: k}
	m.AddRadio(RadioConfig{Name: "rx", Mode: phy.Mode80211b(), Mobility: geom.Static{P: geom.Pt(10, 0)}, TxPower: 15, Listener: rec})

	k.Schedule(0, "tx", func() { tx.Transmit(dataFrame(500), 3) })
	k.Run()

	if len(rec.frames) != 1 {
		t.Fatalf("delivered %d frames, want 1 (errors: %d)", len(rec.frames), len(rec.errors))
	}
	if rec.frames[0].Addr1 != addrB {
		t.Errorf("frame addr1 = %v", rec.frames[0].Addr1)
	}
	// Free space at 10 m, 2.4 GHz ≈ 60 dB loss → RSSI ≈ -45 dBm.
	rssi := float64(rec.infos[0].RSSI)
	if rssi < -50 || rssi > -40 {
		t.Errorf("RSSI at 10 m = %v, want ~-45 dBm", rssi)
	}
	if tx.Stats.TxFrames != 1 {
		t.Errorf("tx stats: %+v", tx.Stats)
	}
}

func TestNoDeliveryOutOfRange(t *testing.T) {
	k, m := testbed(2)
	// 200 dB fixed loss: nothing arrives above the detection floor.
	m2 := New(k, spectrum.NewModel(spectrum.FixedLoss{DB: 200}, nil, nil), rng.New(2))
	tx := m2.AddRadio(RadioConfig{Name: "tx", Mode: phy.Mode80211b(), TxPower: 15})
	rec := &recorder{k: k}
	m2.AddRadio(RadioConfig{Name: "rx", Mode: phy.Mode80211b(), TxPower: 15, Listener: rec})

	k.Schedule(0, "tx", func() { tx.Transmit(dataFrame(500), 0) })
	k.Run()

	if len(rec.frames) != 0 || len(rec.errors) != 0 {
		t.Fatalf("out-of-range delivery: %d frames %d errors", len(rec.frames), len(rec.errors))
	}
	if len(rec.busyAt) != 0 {
		t.Error("CCA fired for undetectable signal")
	}
	_ = m
}

func TestCollisionDestroysBoth(t *testing.T) {
	k, m := testbed(3)
	a := m.AddRadio(RadioConfig{Name: "a", Mode: phy.Mode80211b(), Mobility: geom.Static{P: geom.Pt(-10, 0)}, TxPower: 15})
	b := m.AddRadio(RadioConfig{Name: "b", Mode: phy.Mode80211b(), Mobility: geom.Static{P: geom.Pt(10, 0)}, TxPower: 15})
	rec := &recorder{k: k}
	m.AddRadio(RadioConfig{Name: "rx", Mode: phy.Mode80211b(), Mobility: geom.Static{P: geom.Pt(0, 0)}, TxPower: 15, Listener: rec})

	// Equal power, full overlap: SINR ~ 0 dB for both, certain loss at 11M.
	k.Schedule(0, "a", func() { a.Transmit(dataFrame(1000), 3) })
	k.Schedule(0, "b", func() { b.Transmit(dataFrame(1000), 3) })
	k.Run()

	if len(rec.frames) != 0 {
		t.Fatalf("collision delivered %d frames", len(rec.frames))
	}
	if len(rec.errors) == 0 {
		t.Fatal("receiver never locked on either colliding frame")
	}
}

func TestCaptureStrongLateFrame(t *testing.T) {
	k, m := testbed(4)
	far := m.AddRadio(RadioConfig{Name: "far", Mode: phy.Mode80211b(), Mobility: geom.Static{P: geom.Pt(80, 0)}, TxPower: 15})
	near := m.AddRadio(RadioConfig{Name: "near", Mode: phy.Mode80211b(), Mobility: geom.Static{P: geom.Pt(2, 0)}, TxPower: 15})
	rec := &recorder{k: k}
	m.AddRadio(RadioConfig{
		Name: "rx", Mode: phy.Mode80211b(), Mobility: geom.Static{P: geom.Pt(0, 0)},
		TxPower: 15, CaptureMargin: 10, Listener: rec,
	})

	// Weak frame starts first; strong frame starts 100 µs later and is
	// >40 dB stronger: with capture the receiver re-locks and decodes it.
	k.Schedule(0, "far", func() { far.Transmit(dataFrame(1000), 1) })
	k.Schedule(100*sim.Microsecond, "near", func() {
		near.Transmit(frame.NewData(addrC, addrB, addrA, false, false, make([]byte, 200)), 1)
	})
	k.Run()

	if len(rec.frames) != 1 {
		t.Fatalf("capture delivered %d frames, want 1", len(rec.frames))
	}
	if rec.frames[0].Addr1 != addrC {
		t.Errorf("captured the wrong frame: addr1=%v", rec.frames[0].Addr1)
	}
}

func TestNoCaptureWhenDisabled(t *testing.T) {
	k, m := testbed(5)
	far := m.AddRadio(RadioConfig{Name: "far", Mode: phy.Mode80211b(), Mobility: geom.Static{P: geom.Pt(80, 0)}, TxPower: 15})
	near := m.AddRadio(RadioConfig{Name: "near", Mode: phy.Mode80211b(), Mobility: geom.Static{P: geom.Pt(2, 0)}, TxPower: 15})
	rec := &recorder{k: k}
	m.AddRadio(RadioConfig{
		Name: "rx", Mode: phy.Mode80211b(), Mobility: geom.Static{P: geom.Pt(0, 0)},
		TxPower: 15, Listener: rec,
	})

	k.Schedule(0, "far", func() { far.Transmit(dataFrame(1000), 1) })
	k.Schedule(100*sim.Microsecond, "near", func() {
		near.Transmit(frame.NewData(addrC, addrB, addrA, false, false, make([]byte, 200)), 1)
	})
	k.Run()

	// Without capture the receiver stays locked on the doomed weak frame.
	for _, f := range rec.frames {
		if f.Addr1 == addrC {
			t.Error("strong frame decoded despite capture disabled")
		}
	}
}

func TestCCAEdges(t *testing.T) {
	k, m := testbed(6)
	tx := m.AddRadio(RadioConfig{Name: "tx", Mode: phy.Mode80211b(), Mobility: geom.Static{P: geom.Pt(0, 0)}, TxPower: 15})
	rec := &recorder{k: k}
	rx := m.AddRadio(RadioConfig{Name: "rx", Mode: phy.Mode80211b(), Mobility: geom.Static{P: geom.Pt(20, 0)}, TxPower: 15, Listener: rec})

	var airtime sim.Duration
	k.Schedule(10*sim.Microsecond, "tx", func() { airtime = tx.Transmit(dataFrame(500), 3) })
	k.Run()

	if len(rec.busyAt) != 1 || len(rec.idleAt) != 1 {
		t.Fatalf("CCA edges: %d busy, %d idle", len(rec.busyAt), len(rec.idleAt))
	}
	busyDur := rec.idleAt[0].Sub(rec.busyAt[0])
	if busyDur != airtime {
		t.Errorf("CCA busy for %v, want airtime %v", busyDur, airtime)
	}
	if rx.CCABusy() {
		t.Error("CCA still busy after run")
	}
}

func TestPropagationDelay(t *testing.T) {
	k, m := testbed(7)
	// 299.79 m ≈ 1 µs of flight time.
	tx := m.AddRadio(RadioConfig{Name: "tx", Mode: phy.Mode80211b(), Mobility: geom.Static{P: geom.Pt(0, 0)}, TxPower: 30})
	rec := &recorder{k: k}
	m.AddRadio(RadioConfig{Name: "rx", Mode: phy.Mode80211b(), Mobility: geom.Static{P: geom.Pt(299.79, 0)}, TxPower: 30, Listener: rec})

	k.Schedule(0, "tx", func() { tx.Transmit(dataFrame(100), 0) })
	k.Run()

	if len(rec.busyAt) != 1 {
		t.Fatalf("CCA busy edges = %d", len(rec.busyAt))
	}
	delay := rec.busyAt[0].Sub(0)
	if delay < 900*sim.Nanosecond || delay > 1100*sim.Nanosecond {
		t.Errorf("propagation delay = %v, want ~1µs", delay)
	}
}

func TestHalfDuplex(t *testing.T) {
	k, m := testbed(8)
	a := m.AddRadio(RadioConfig{Name: "a", Mode: phy.Mode80211b(), Mobility: geom.Static{P: geom.Pt(0, 0)}, TxPower: 15})
	recB := &recorder{k: k}
	b := m.AddRadio(RadioConfig{Name: "b", Mode: phy.Mode80211b(), Mobility: geom.Static{P: geom.Pt(5, 0)}, TxPower: 15, Listener: recB})

	// b transmits first; a's frame arrives mid-TX and must be discarded.
	k.Schedule(0, "b", func() { b.Transmit(dataFrame(1000), 0) })
	k.Schedule(100*sim.Microsecond, "a", func() { a.Transmit(dataFrame(100), 0) })
	k.Run()

	if len(recB.frames) != 0 {
		t.Fatalf("radio b decoded %d frames while transmitting", len(recB.frames))
	}
	if b.Stats.RxWhileTx == 0 {
		t.Error("RxWhileTx counter not incremented")
	}
}

func TestSleepingRadioReceivesNothing(t *testing.T) {
	k, m := testbed(9)
	tx := m.AddRadio(RadioConfig{Name: "tx", Mode: phy.Mode80211b(), Mobility: geom.Static{P: geom.Pt(0, 0)}, TxPower: 15})
	rec := &recorder{k: k}
	rx := m.AddRadio(RadioConfig{Name: "rx", Mode: phy.Mode80211b(), Mobility: geom.Static{P: geom.Pt(5, 0)}, TxPower: 15, Listener: rec})

	k.Schedule(0, "sleep", func() { rx.Sleep() })
	k.Schedule(10*sim.Microsecond, "tx", func() { tx.Transmit(dataFrame(200), 3) })
	k.Schedule(5*sim.Millisecond, "wake", func() { rx.Wake() })
	k.Run()

	if len(rec.frames) != 0 || len(rec.errors) != 0 {
		t.Fatal("sleeping radio decoded a frame")
	}
	if rx.Stats.SleepTime < 4*sim.Millisecond {
		t.Errorf("sleep time = %v", rx.Stats.SleepTime)
	}
}

func TestMidSNRDeliveryIsProbabilistic(t *testing.T) {
	// At a distance where PER is strictly between 0 and 1, repeated
	// transmissions should both succeed and fail.
	k, m := testbed(11)
	b := phy.Mode80211b()
	// Find the ~50% PER SINR for 500-byte frames at 11M and place the
	// receiver accordingly using fixed loss.
	sinr := b.SINRForPER(3, 500, 0.5)
	nf := b.NoiseFloorDBm(7)
	rxPower := nf.Add(units.DBFromLinear(sinr))
	loss := units.DB(15 - float64(rxPower))
	m2 := New(k, spectrum.NewModel(spectrum.FixedLoss{DB: loss}, nil, nil), rng.New(11))
	tx := m2.AddRadio(RadioConfig{Name: "tx", Mode: phy.Mode80211b(), TxPower: 15})
	rec := &recorder{k: k}
	m2.AddRadio(RadioConfig{Name: "rx", Mode: phy.Mode80211b(), TxPower: 15, Listener: rec})

	for i := 0; i < 200; i++ {
		k.Schedule(sim.Duration(i)*2*sim.Millisecond, "tx", func() { tx.Transmit(dataFrame(500), 3) })
	}
	k.Run()

	ok, bad := len(rec.frames), len(rec.errors)
	if ok+bad != 200 {
		t.Fatalf("locked %d of 200 transmissions", ok+bad)
	}
	if ok < 50 || ok > 150 {
		t.Errorf("at 50%% PER point: %d successes of 200", ok)
	}
	_ = m
}

func TestDeterminism(t *testing.T) {
	run := func() (int, int) {
		k, _ := testbed(42)
		model := spectrum.NewModel(spectrum.NewLogDistance(2412*units.MHz, 3.0), nil,
			spectrum.NewRayleigh(rng.New(42).Split("fading"), 5*sim.Millisecond))
		m := New(k, model, rng.New(42))
		tx := m.AddRadio(RadioConfig{Name: "tx", Mode: phy.Mode80211b(), Mobility: geom.Static{P: geom.Pt(0, 0)}, TxPower: 15})
		rec := &recorder{k: k}
		m.AddRadio(RadioConfig{Name: "rx", Mode: phy.Mode80211b(), Mobility: geom.Static{P: geom.Pt(60, 0)}, TxPower: 15, Listener: rec})
		for i := 0; i < 100; i++ {
			k.Schedule(sim.Duration(i)*3*sim.Millisecond, "tx", func() { tx.Transmit(dataFrame(700), 2) })
		}
		k.Run()
		return len(rec.frames), len(rec.errors)
	}
	ok1, err1 := run()
	ok2, err2 := run()
	if ok1 != ok2 || err1 != err2 {
		t.Fatalf("non-deterministic: run1=(%d,%d) run2=(%d,%d)", ok1, err1, ok2, err2)
	}
}

func TestTransmitWhileTransmittingPanics(t *testing.T) {
	k, m := testbed(12)
	tx := m.AddRadio(RadioConfig{Name: "tx", Mode: phy.Mode80211b(), TxPower: 15})
	defer func() {
		if recover() == nil {
			t.Fatal("double transmit did not panic")
		}
	}()
	k.Schedule(0, "tx", func() {
		tx.Transmit(dataFrame(100), 0)
		tx.Transmit(dataFrame(100), 0)
	})
	k.Run()
}

func TestTxDoneCallback(t *testing.T) {
	k, m := testbed(13)
	rec := &recorder{k: k}
	tx := m.AddRadio(RadioConfig{Name: "tx", Mode: phy.Mode80211b(), TxPower: 15, Listener: rec})
	k.Schedule(0, "tx", func() { tx.Transmit(dataFrame(100), 0) })
	k.Run()
	if rec.txDone != 1 {
		t.Fatalf("txDone = %d", rec.txDone)
	}
	if tx.Transmitting() {
		t.Error("still transmitting after run")
	}
}

func TestRSSIOrderedByDistance(t *testing.T) {
	k, m := testbed(14)
	tx := m.AddRadio(RadioConfig{Name: "tx", Mode: phy.Mode80211g(), Mobility: geom.Static{P: geom.Pt(0, 0)}, TxPower: 20})
	recNear := &recorder{k: k}
	recFar := &recorder{k: k}
	m.AddRadio(RadioConfig{Name: "near", Mode: phy.Mode80211g(), Mobility: geom.Static{P: geom.Pt(5, 0)}, TxPower: 20, Listener: recNear})
	m.AddRadio(RadioConfig{Name: "far", Mode: phy.Mode80211g(), Mobility: geom.Static{P: geom.Pt(50, 0)}, TxPower: 20, Listener: recFar})

	k.Schedule(0, "tx", func() { tx.Transmit(dataFrame(300), 0) })
	k.Run()

	if len(recNear.infos) != 1 || len(recFar.infos) != 1 {
		t.Fatalf("deliveries: near=%d far=%d", len(recNear.infos), len(recFar.infos))
	}
	if recNear.infos[0].RSSI <= recFar.infos[0].RSSI {
		t.Errorf("near RSSI %v not above far RSSI %v", recNear.infos[0].RSSI, recFar.infos[0].RSSI)
	}
}
