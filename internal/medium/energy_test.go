package medium

import (
	"math"
	"testing"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/units"
)

func TestPowerModelComponents(t *testing.T) {
	pm := PowerModel{TxW: 2, RxW: 1, IdleW: 0.5, SleepW: 0.1}
	st := RadioStats{
		TxAirtime: sim.Duration(1 * sim.Second),
		RxAirtime: sim.Duration(2 * sim.Second),
		SleepTime: sim.Duration(3 * sim.Second),
	}
	// 10 s elapsed: 1 tx + 2 rx + 3 sleep + 4 idle.
	e := pm.Energy(st, 10*sim.Second)
	want := 2*1 + 1*2 + 0.5*4 + 0.1*3
	if math.Abs(e-want) > 1e-9 {
		t.Fatalf("energy = %v, want %v", e, want)
	}
}

func TestPowerModelClampsNegativeIdle(t *testing.T) {
	pm := DefaultPowerModel()
	st := RadioStats{TxAirtime: sim.Duration(5 * sim.Second)}
	// Elapsed shorter than the recorded airtime (caller sliced stats):
	// idle must clamp to zero, not go negative.
	e := pm.Energy(st, 1*sim.Second)
	if e < 0 {
		t.Fatalf("negative energy %v", e)
	}
	if math.Abs(e-pm.TxW*5) > 1e-9 {
		t.Fatalf("energy = %v, want pure tx %v", e, pm.TxW*5)
	}
}

func TestDefaultPowerModelOrdering(t *testing.T) {
	pm := DefaultPowerModel()
	if !(pm.TxW > pm.RxW && pm.RxW > pm.IdleW && pm.IdleW > pm.SleepW) {
		t.Fatalf("power ordering violated: %+v", pm)
	}
}

func TestRxAirtimeAccounting(t *testing.T) {
	k := sim.NewKernel()
	model := spectrum.NewModel(spectrum.FreeSpace{Freq: 2412 * units.MHz}, nil, nil)
	m := New(k, model, rng.New(1))
	tx := m.AddRadio(RadioConfig{Name: "tx", Mode: phy.Mode80211b(), Mobility: geom.Static{P: geom.Pt(0, 0)}, TxPower: 15})
	rx := m.AddRadio(RadioConfig{Name: "rx", Mode: phy.Mode80211b(), Mobility: geom.Static{P: geom.Pt(10, 0)}, TxPower: 15})

	var airtime sim.Duration
	k.Schedule(0, "tx", func() {
		f := frame.NewData(frame.MACAddr{2, 0, 0, 0, 0, 2}, frame.MACAddr{2, 0, 0, 0, 0, 1},
			frame.MACAddr{}, false, false, make([]byte, 400))
		airtime = tx.Transmit(f, 3)
	})
	k.Run()

	if rx.Stats.RxAirtime != airtime {
		t.Fatalf("rx airtime = %v, want %v", rx.Stats.RxAirtime, airtime)
	}
	if tx.Stats.TxAirtime != airtime {
		t.Fatalf("tx airtime = %v, want %v", tx.Stats.TxAirtime, airtime)
	}
	// A sleeping radio accumulates no RX airtime.
	energyAwake := DefaultPowerModel().Energy(rx.Stats, k.Now().Sub(0))
	if energyAwake <= 0 {
		t.Fatal("no energy accounted")
	}
}
