package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestSoakSteadyState is the long-run wall: a fixed-seed saturated ring of
// eight 802.11g ad-hoc stations, every station backlogged toward its
// neighbour, simulated in chunks of two virtual seconds with
// runtime.MemStats read at every chunk boundary and the metrics path live
// (every 100 ms flush runs inside the bracket). Warm-up is excluded: pools
// and queues reach their high-water marks and the sink's bounded duplicate
// windows fill (4096 packets per flow). After it the kernel, medium, MAC
// and flush path must hold zero allocations per chunk and a flat Go heap
// footprint — a leak that is invisible over 100 ms and fatal over a week
// shows here. Bounded by virtual time, so the verdict is the same on any
// host.
func TestSoakSteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 200 virtual seconds (~5 s)")
	}
	const (
		chunk        = 2 * sim.Second
		warmupChunks = 60
		steadyChunks = 40
		// The data paths are 0 allocs/op; the budget absorbs one-off growth
		// that slips past warm-up (a map bucket, a pool high-water mark). A
		// real per-event allocation exceeds it 10^5-fold.
		maxAllocsPerMEvent = 5.0
		// MemStats.Sys is monotone, so steady growth means an unbounded
		// structure.
		sysSlack = 1 << 20
	)

	// MemStats.Mallocs is process-wide, and the Go scheduler allocates when
	// it starts an OS thread (runtime.newm → allocm: the m and its g0 and
	// signal goroutines). With a second P idle, a simulation goroutine
	// preempted on a loaded host can make it start one mid-chunk, and the
	// chunk then reads 6 allocations while the threadcreate profile goes up
	// by one. With one P there is no idle P to start a thread for; the
	// simulation runs on this goroutine either way.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	prevOn, prevEvery := obs.Enabled(), MetricsEvery
	obs.SetEnabled(true)
	MetricsEvery = 100 * sim.Millisecond
	t.Cleanup(func() {
		obs.SetEnabled(prevOn)
		MetricsEvery = prevEvery
	})
	metricEventsBefore := obs.Sim.Events.Value()

	net := NewNetwork(Config{Seed: 7, Mode: "802.11g"})
	const nSta = 8
	ring := geom.Circle(nSta, 15, geom.Pt(0, 0))
	nodes := make([]*Node, nSta)
	for i := range nodes {
		nodes[i] = net.AddAdhoc(fmt.Sprintf("sta%d", i), ring[i])
	}
	for i := range nodes {
		net.Saturate(nodes[i], nodes[(i+1)%nSta], 1000)
	}
	// Exact-quantile latency recording and the full duplicate-detection
	// set grow with virtual time; a flat-footprint wall needs them capped.
	net.Sink().Bound()

	var ms runtime.MemStats
	var baseSys, peakSys, steadyAllocs, steadyEvents uint64
	var peakPool int64
	for c := 1; c <= warmupChunks+steadyChunks; c++ {
		runtime.ReadMemStats(&ms)
		mallocs0, ev0 := ms.Mallocs, net.kernel.Processed()
		net.Run(chunk)
		runtime.ReadMemStats(&ms)
		allocs, events := ms.Mallocs-mallocs0, net.kernel.Processed()-ev0

		if c <= warmupChunks {
			baseSys, peakSys = ms.Sys, ms.Sys
			continue
		}
		steadyAllocs += allocs
		steadyEvents += events
		peakSys = max(peakSys, ms.Sys)
		// Set by the chunk's last flush; zero means the flush never ran.
		peakPool = max(peakPool, obs.Sim.PoolEvents.Value())
		if perM := float64(allocs) / (float64(events) / 1e6); perM > maxAllocsPerMEvent {
			t.Errorf("chunk %d: %d allocs over %d events (%.1f per million, budget %.1f)",
				c, allocs, events, perM, maxAllocsPerMEvent)
		}
	}

	t.Logf("steady state: %d allocs over %d events; go heap sys %.1f -> %.1f MiB; peak pool gauge %d",
		steadyAllocs, steadyEvents, float64(baseSys)/(1<<20), float64(peakSys)/(1<<20), peakPool)
	if growth := peakSys - baseSys; growth > sysSlack {
		t.Errorf("heap footprint grew %d bytes after warm-up (slack %d)", growth, sysSlack)
	}
	if got, want := obs.Sim.Events.Value()-metricEventsBefore, net.kernel.Processed(); got != want {
		t.Errorf("metrics events counter saw %d of %d kernel events (flush path dead or double counting)", got, want)
	}
	if peakPool == 0 {
		t.Error("event pool gauge never set (chunk-boundary flush did not run)")
	}
}
