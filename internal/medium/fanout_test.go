package medium

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/units"
)

// This file is the transmit-level differential wall: whichever path serves
// a transmission — a fan-out row, the row/mobile merge, the grid walk or
// the all-radios walk — the arrivals it schedules must equal, bit for bit
// and in order, what model.RxPower over every radio says they should be.

// wantArrival is one scheduled arrival as the kernel and the receiver see
// it.
type wantArrival struct {
	rx             int
	power, powerMW uint64 // float bits
	delay          sim.Duration
}

// referenceArrivals recomputes tx's fan-out at the current instant from
// first principles: every other radio on the channel, in ascending id,
// through the composite model and the power filter.
func referenceArrivals(m *Medium, tx *Radio) []wantArrival {
	now := m.kernel.Now()
	txPos := tx.mobility.PositionAt(now)
	var want []wantArrival
	for _, rx := range m.radios {
		if rx == tx || rx.channel != tx.channel {
			continue
		}
		rxPos := rx.mobility.PositionAt(now)
		power := m.model.RxPower(tx.txPower, txPos, rxPos, linkID(tx, rx), now)
		if float64(power) < float64(rx.noiseFloor)-m.DetectionMarginDB {
			continue
		}
		w := wantArrival{rx: rx.id, power: math.Float64bits(float64(power)),
			powerMW: math.Float64bits(linearOrZero(power))}
		if m.PropagationDelay {
			w.delay = sim.Duration(txPos.Distance(rxPos) / units.SpeedOfLight * float64(sim.Second))
		}
		want = append(want, w)
	}
	// Leading edges run in delay order; equal delays keep schedule order,
	// which must be ascending id.
	slices.SortStableFunc(want, func(a, b wantArrival) int { return int(a.delay - b.delay) })
	return want
}

// transmitAndCompare sends one frame from tx, watches the leading-edge
// events the kernel runs, reads each arrival's power off its receiver, and
// compares the sequence with the reference.
func transmitAndCompare(t *testing.T, k *sim.Kernel, m *Medium, tx *Radio, what string) {
	t.Helper()
	var want, got []wantArrival
	var start sim.Time
	k.OnEvent = func(at sim.Time, name string) {
		if id, ok := strings.CutPrefix(name, "rx-start:r"); ok {
			rx, err := strconv.Atoi(id)
			if err != nil {
				t.Fatalf("leading edge at a radio the wall did not name: %q", name)
			}
			got = append(got, wantArrival{rx: rx, delay: at.Sub(start)})
		}
	}
	k.Schedule(0, "tx", func() {
		start = k.Now()
		want = referenceArrivals(m, tx)
		tx.Transmit(dataFrame(200), 0)
	})
	// Every leading edge (delays are microseconds) and no trailing edge
	// (airtime is over a millisecond) has run: each receiver holds exactly
	// this transmission in flight.
	k.RunFor(100 * sim.Microsecond)
	k.OnEvent = nil
	for i := range got {
		in := m.radios[got[i].rx].inFlight
		if len(in) != 1 || in[0].t.tx != tx {
			t.Fatalf("%s: radio %d holds %d arrivals in flight, want tx %d's alone", what, got[i].rx, len(in), tx.id)
		}
		got[i].power = math.Float64bits(float64(in[0].power))
		got[i].powerMW = math.Float64bits(in[0].powerMW)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: tx %d at %v scheduled\n  %v\nreference says\n  %v", what, tx.id, start, got, want)
	}
	k.Run()
}

// wallTopology interleaves static and mobile ids on a 30 m grid, with
// transmit powers low enough that the power filter (and, where it is live,
// the spatial index) drops part of every fan-out.
func wallTopology(m *Medium, n int) {
	for i, p := range geom.Grid(n, 30, geom.Pt(0, 0)) {
		m.AddRadio(wallRadio(i, p))
	}
}

func wallRadio(i int, p geom.Point) RadioConfig {
	var mob geom.Mobility = geom.Static{P: p}
	switch i % 5 {
	case 1:
		mob = geom.OrbitMobility{Centre: p, Radius: 25, Period: sim.Duration(2+i%3) * sim.Second}
	case 3:
		mob = geom.Linear{Start: p, Velocity: geom.Vector{X: float64(i%7) - 3, Y: float64(i%4) - 2}}
	}
	return RadioConfig{
		Name: fmt.Sprintf("r%d", i), Mode: phy.Mode80211b(), Mobility: mob,
		TxPower: units.DBm(-22 + 6*float64(i%3)),
	}
}

func TestTransmitDifferentialAllRadios(t *testing.T) {
	free := spectrum.FreeSpace{Freq: 2412 * units.MHz}
	channels := []struct {
		name  string
		model func(src *rng.Source) *spectrum.Model
		grid  bool
	}{
		{"free-space", func(*rng.Source) *spectrum.Model { return spectrum.NewModel(free, nil, nil) }, true},
		{"log-distance", func(*rng.Source) *spectrum.Model {
			return spectrum.NewModel(spectrum.NewLogDistance(2412*units.MHz, 3.0), nil, nil)
		}, true},
		{"shadowed", func(src *rng.Source) *spectrum.Model {
			return spectrum.NewModel(free, spectrum.NewShadowing(src.Split("shadow"), 4), nil)
		}, false},
		{"shadowed+rayleigh", func(src *rng.Source) *spectrum.Model {
			return spectrum.NewModel(free, spectrum.NewShadowing(src.Split("shadow"), 4),
				spectrum.NewRayleigh(src.Split("fast"), 0))
		}, false},
	}
	const steps = 40
	for _, ch := range channels {
		t.Run(ch.name, func(t *testing.T) {
			k := sim.NewKernel()
			src := rng.New(31)
			m := New(k, ch.model(src), src)
			wallTopology(m, 25)
			if m.sp.enabled != ch.grid {
				t.Fatalf("spatial index enabled = %v, want %v", m.sp.enabled, ch.grid)
			}
			delivered, filtered := uint64(0), 0
			for step := 0; step < steps; step++ {
				what := "steady state"
				switch step {
				case 5:
					what = "after AddRadio"
					m.AddRadio(wallRadio(25, geom.Pt(40, 70)))
					m.AddRadio(wallRadio(26, geom.Pt(70, 40)))
				case 10:
					what = "after static→mobile"
					m.radios[0].SetMobility(geom.Linear{Start: geom.Pt(0, 0), Velocity: geom.Vector{X: 2, Y: 1}, T0: k.Now()})
				case 15:
					what = "after mobile→static"
					m.radios[0].SetMobility(geom.Static{P: geom.Pt(95, 35)})
					m.radios[1].SetMobility(geom.Static{P: geom.Pt(20, 20)})
				case 20:
					what = "after margin change"
					m.DetectionMarginDB = 4
				case 25:
					what = "after SetChannel"
					m.radios[2].SetChannel(6)
					m.radios[6].SetChannel(6)
					m.radios[7].SetChannel(6)
				case 30:
					what = "after PropagationDelay=false"
					m.PropagationDelay = false
				}
				for _, tx := range m.radios {
					before := m.FanoutDelivered
					transmitAndCompare(t, k, m, tx, fmt.Sprintf("step %d (%s)", step, what))
					delivered += m.FanoutDelivered - before
					filtered += len(m.radios) - 1 - int(m.FanoutDelivered-before)
				}
				k.RunFor(7 * sim.Millisecond) // movers move, fading blocks turn over
			}
			if delivered == 0 || filtered == 0 {
				t.Fatalf("%d arrivals delivered, %d filtered: the wall must see both", delivered, filtered)
			}
			if m.LinkCacheHits == 0 || m.LinkCacheMisses == 0 {
				t.Fatalf("row path not exercised: %d entries served, %d built", m.LinkCacheHits, m.LinkCacheMisses)
			}
		})
	}
}
