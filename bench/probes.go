package main

import (
	"bytes"
	"math"
	"sort"
	"time"

	"repro/internal/frame"
	"repro/internal/harness"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/rate"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/wep"
)

// Layer probes time each layer's public calls in isolation, on inputs taken
// from the workload just run. They use only the append/view/*To variants.

const probeRounds = 5

// probeRoundTime is how long one of the five rounds of a probe lasts.
func probeRoundTime(tiny bool) time.Duration {
	if tiny {
		return time.Millisecond
	}
	return 40 * time.Millisecond
}

// probe returns the median over probeRounds of ns per iteration of fn,
// which must run n iterations and return the time they took.
func probe(tiny bool, fn func(n int) time.Duration) float64 {
	n := 256
	for fn(n) < probeRoundTime(tiny)/8 && n < 1<<24 {
		n *= 4
	}
	if d := fn(n); d > 0 {
		n = int(float64(n)*float64(probeRoundTime(tiny))/float64(d)) + 1
	}
	var xs []float64
	for i := 0; i < probeRounds; i++ {
		xs = append(xs, float64(fn(n).Nanoseconds())/float64(n))
	}
	return median(xs)
}

// loop adapts a per-iteration body to probe.
func loop(body func(i int)) func(n int) time.Duration {
	return func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			body(i)
		}
		return time.Since(t0)
	}
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

var probeSink float64 // keeps probe results live

// runProbes fills the *_probe_* metrics for a simulation workload from the
// scenarios its traced repetition just ran.
func runProbes(c map[string]float64, w *workload, ran []*scenario, seed uint64, tiny bool, tr *tracer) {
	last := ran[len(ran)-1]
	mode, payload := last.net.Mode(), last.payload
	top := mode.MaxRate()

	c["sim.probe_ns_per_event"] = probeKernel(tiny, int(c["sim.heap_high_water"]))

	// medium: Radio.Transmit on each op's own topology; the estimate of
	// the fan-out share hidden inside mac/traffic spans is probe × count.
	var estNs, txs float64
	for i, op := range w.ops {
		n := float64(ran[i].net.Medium().Transmissions)
		estNs += probeTransmit(tiny, op.build(opSeed(seed, i), tiny)) * n
		txs += n
	}
	c["medium.transmit_probe_ns"] = ratio(estNs, txs)
	c["trace.medium_transmit_est_s"] = estNs / 1e9

	// phy: ChunkSuccess over the SINR range seen, Airtime at the sizes used.
	lo, hi := tr.sinrMin, tr.sinrMax
	if lo > hi {
		lo, hi = 0, 30
	}
	var sinr [1024]float64
	for i := range sinr {
		sinr[i] = math.Pow(10, (lo+(hi-lo)*float64(i)/float64(len(sinr)-1))/10)
	}
	c["phy.chunk_success_probe_ns"] = probe(tiny, loop(func(i int) {
		probeSink += mode.ChunkSuccess(top, sinr[i%len(sinr)], 8*payload)
	}))
	sizes := [2]int{payload + 36, 14} // data MPDU (header+SNAP+FCS) and ACK
	c["phy.airtime_probe_ns"] = probe(tiny, loop(func(i int) {
		probeSink += float64(mode.Airtime(phy.RateIdx(i%mode.NumRates()), sizes[i&1]))
	}))

	// frame: wire encode / zero-copy decode at the workload's payload size.
	f := frame.NewData(frame.MACAddr{2, 0, 0, 0, 0, 1}, frame.MACAddr{2, 0, 0, 0, 0, 2},
		frame.MACAddr{2, 0, 0, 0, 0, 3}, false, false, make([]byte, payload))
	wire := f.AppendWire(nil)
	c["frame.append_wire_probe_ns"] = probe(tiny, loop(func(int) { wire = f.AppendWire(wire[:0]) }))
	var view frame.Frame
	c["frame.unmarshal_into_probe_ns"] = probe(tiny, loop(func(int) {
		if err := frame.UnmarshalInto(&view, wire); err != nil {
			panic(err)
		}
	}))

	// wep: seal / open one payload with the workload's key.
	key := last.wepKey
	if key == nil {
		key = wep.Key("bench-wep-key")
	}
	plain := make([]byte, payload)
	sealed, err := wep.SealTo(nil, key, wep.IV{1, 2, 3}, 0, plain)
	if err != nil {
		panic(err)
	}
	c["wep.seal_probe_ns"] = probe(tiny, loop(func(i int) {
		sealed, _ = wep.SealTo(sealed[:0], key, wep.IV{byte(i), byte(i >> 8), byte(i >> 16)}, 0, plain)
	}))
	opened := make([]byte, 0, len(sealed))
	c["wep.open_probe_ns"] = probe(tiny, loop(func(int) {
		if _, err := wep.OpenTo(opened[:0], key, 0, sealed); err != nil {
			panic(err)
		}
	}))

	// rate: one SelectRate + OnTxResult decision cycle per controller.
	src := rng.New(seed)
	ctrls := []struct {
		name string
		rc   mac.RateController
	}{
		{"arf", rate.NewARF(mode)}, {"aarf", rate.NewAARF(mode)},
		{"samplerate", rate.NewSampleRate(mode, src.Split("samplerate"))},
		{"minstrel", rate.NewMinstrel(mode, src.Split("minstrel"))},
	}
	var sum float64
	for _, ct := range ctrls {
		rc, dst := ct.rc, frame.MACAddr{2, 0, 0, 0, 0, 9}
		ns := probe(tiny, loop(func(i int) {
			ri := rc.SelectRate(dst, payload+36, 0)
			rc.OnTxResult(dst, ri, i%8 != 0)
		}))
		c["rate.decision_probe_ns_"+ct.name] = ns
		sum += ns
	}
	c["rate.decision_probe_ns"] = sum / float64(len(ctrls))
}

// probeKernel times Schedule + Run of no-op handlers with the heap held at
// depth: every handler reschedules itself one full rotation ahead.
func probeKernel(tiny bool, depth int) float64 {
	if depth < 1 {
		depth = 1
	}
	k := sim.NewKernel()
	left := 0
	var tick func()
	tick = func() {
		if left--; left <= 0 {
			k.Stop()
		}
		k.Schedule(sim.Duration(depth)*sim.Microsecond, "probe", tick)
	}
	for i := 0; i < depth; i++ {
		k.Schedule(sim.Duration(i)*sim.Microsecond, "probe", tick)
	}
	return probe(tiny, func(n int) time.Duration {
		left = n
		t0 := time.Now()
		k.Run()
		return time.Since(t0)
	})
}

// probeTransmit times Radio.Transmit alone on a freshly built copy of the
// scenario with traffic stopped and NopListeners on every radio, so the
// probe's calls are the only ones on the sending radios (access points keep
// beaconing from their own). The kernel runs between calls, untimed, to
// finish each transmission; that advances the clock, so mobile radios
// refresh their positions as they do in the workload.
func probeTransmit(tiny bool, s *scenario) float64 {
	s.net.StopTraffic()
	var senders []*medium.Radio
	for _, n := range s.net.Nodes() {
		n.Radio.SetListener(medium.NopListener{})
		if n.AP == nil {
			senders = append(senders, n.Radio)
		}
	}
	ri := s.net.Mode().MaxRate()
	if s.rate == "fixed:0" {
		ri = 0
	}
	f := frame.NewData(frame.Broadcast, frame.MACAddr{2, 0, 0, 0, 0, 2}, frame.Broadcast,
		false, false, make([]byte, s.payload))
	k := s.net.Kernel()
	next := 0
	return probe(tiny, func(n int) time.Duration {
		var d time.Duration
		for i := 0; i < n; i++ {
			r := senders[next%len(senders)]
			next++
			t0 := time.Now()
			air := r.Transmit(f, ri)
			d += time.Since(t0)
			k.RunFor(air + 10*sim.Microsecond)
		}
		return d
	})
}

// probeCodec times the sweep wire round trip (WriteShard → ParseShard →
// Merge) on an experiment's real rows (quick-mode rows at tiny scale) and
// returns ns per round trip and the rows in one.
func probeCodec(quick bool, id string, byPoint map[int][][]string) (ns float64, rows int) {
	for _, g := range byPoint {
		rows += len(g)
	}
	var buf bytes.Buffer
	ns = probe(quick, loop(func(int) {
		buf.Reset()
		if err := sweep.WriteShard(&buf, sweep.Header{Exp: id, Shards: 1, Quick: quick}, byPoint,
			sweep.ShardStats{Points: len(byPoint), Rows: rows}); err != nil {
			panic(err)
		}
		_, parsed, _, err := sweep.ParseShard(&buf)
		if err != nil {
			panic(err)
		}
		g := harness.ByID(id).Grid(quick)
		if _, err := sweep.Merge(g.Table, g.N, []map[int][][]string{parsed}); err != nil {
			panic(err)
		}
	}))
	return ns, rows
}
