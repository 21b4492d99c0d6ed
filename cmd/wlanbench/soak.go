package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/sim"
)

// soakChunk is the virtual time simulated between MemStats samples.
const soakChunk = 2 * sim.Second

// soakWarmup is the virtual time excluded from the steady-state assertions:
// pools and queues reach their high-water marks and the sink's bounded
// duplicate windows fill (4096 packets per flow) before the system settles
// to literal zero allocations per chunk.
const soakWarmup = 120 * sim.Second

// soakWarmupChunks is soakWarmup expressed in chunks.
const soakWarmupChunks = int(soakWarmup / soakChunk)

// soakMaxAllocsPerMEvent is the steady-state allocation budget: allocations
// per million simulated events. The data paths are 0 allocs/op, so the
// budget only absorbs one-off growth that slips past warm-up (a map bucket,
// a pool high-water mark); a real per-event allocation blows through it
// instantly at ~10^6 events per chunk.
const soakMaxAllocsPerMEvent = 5.0

// soakSysSlack is how much the Go heap footprint (MemStats.Sys) may grow
// after warm-up before the soak fails. Sys is monotone in Go, so steady
// growth means an unbounded structure; a flat kernel stays within noise.
const soakSysSlack = 1 << 20 // 1 MiB

// runSoak is the -soak mode: one fixed-seed saturated scenario, simulated in
// virtual-time chunks until the wall deadline, with runtime.MemStats sampled
// at every chunk boundary. It proves the kernel holds 0 allocs/op and a flat
// RSS over arbitrarily long runs — the precondition for a long-lived sweep
// service. Returns the process exit code.
func runSoak(dur time.Duration) int {
	// Instrumentation stays live for the whole soak: every chunk's metric
	// flush runs inside the MemStats bracket below, so the metrics path
	// itself is held to the same 0 allocs/op steady-state budget as the
	// kernel, and the new kernel gauges are sampled at every chunk
	// boundary.
	prevOn, prevEvery := obs.Enabled(), core.MetricsEvery
	obs.SetEnabled(true)
	core.MetricsEvery = 100 * sim.Millisecond
	defer func() {
		obs.SetEnabled(prevOn)
		core.MetricsEvery = prevEvery
	}()
	evCounterBefore := obs.Sim.Events.Value()

	// Fixed-seed scenario: eight 802.11g ad-hoc stations on a 30 m ring,
	// every station saturating toward its neighbour. Dense contention keeps
	// the medium — and the kernel's same-timestamp runs — busy.
	net := core.NewNetwork(core.Config{Seed: 7, Mode: "802.11g"})
	const nSta = 8
	ring := geom.Circle(nSta, 15, geom.Pt(0, 0))
	nodes := make([]*core.Node, nSta)
	for i := range nodes {
		nodes[i] = net.AddAdhoc(fmt.Sprintf("sta%d", i), ring[i])
	}
	for i := range nodes {
		net.Saturate(nodes[i], nodes[(i+1)%nSta], 1000)
	}
	// Cap the flow accounting: exact-quantile latency recording and the full
	// duplicate-detection set grow with virtual time, which is exactly what
	// a flat-RSS gate must not do.
	net.Sink().Bound()

	fmt.Fprintf(os.Stderr, "soak: %d stations, %v per chunk, wall budget %v\n", nSta, soakChunk, dur)

	var ms runtime.MemStats
	var baseSys, peakSys uint64
	var steadyAllocs, steadyEvents uint64
	var peakPool int64
	var worstChunkAllocs float64
	totalEvents := uint64(0)
	chunks := 0
	violations := 0
	deadline := time.Now().Add(dur)
	t0 := time.Now()

	for time.Now().Before(deadline) {
		runtime.ReadMemStats(&ms)
		mallocs0, ev0 := ms.Mallocs, core.SimEvents()
		net.Run(soakChunk)
		runtime.ReadMemStats(&ms)
		allocs, events := ms.Mallocs-mallocs0, core.SimEvents()-ev0
		totalEvents += events
		chunks++

		if chunks <= soakWarmupChunks {
			fmt.Fprintf(os.Stderr, "soak: chunk %3d (warmup)  %9d events  %6d allocs  sys %6.1f MiB\n",
				chunks, events, allocs, float64(ms.Sys)/(1<<20))
			baseSys, peakSys = ms.Sys, ms.Sys
			continue
		}

		steadyAllocs += allocs
		steadyEvents += events
		if ms.Sys > peakSys {
			peakSys = ms.Sys
		}
		// Kernel gauges, freshly set by the chunk-boundary flush. Reading
		// them every chunk keeps the whole gauge path inside the allocation
		// bracket, and a dead flush (pool gauge never set) fails loudly
		// below.
		heapDepth := obs.Sim.HeapDepth.Value()
		poolSize := obs.Sim.PoolEvents.Value()
		poolFree := obs.Sim.PoolFree.Value()
		if poolSize > peakPool {
			peakPool = poolSize
		}
		perM := float64(allocs) / (float64(events) / 1e6)
		if perM > worstChunkAllocs {
			worstChunkAllocs = perM
		}
		if perM > soakMaxAllocsPerMEvent {
			violations++
			fmt.Fprintf(os.Stderr, "soak: chunk %3d VIOLATION  %9d events  %6d allocs (%.2f/Mevent, budget %.2f)\n",
				chunks, events, allocs, perM, soakMaxAllocsPerMEvent)
		} else if chunks%10 == 0 || allocs > 0 {
			fmt.Fprintf(os.Stderr, "soak: chunk %3d            %9d events  %6d allocs  sys %6.1f MiB  heap %3d  pool %d (%d free)\n",
				chunks, events, allocs, float64(ms.Sys)/(1<<20), heapDepth, poolSize, poolFree)
		}
	}
	wall := time.Since(t0)

	if chunks <= soakWarmupChunks {
		fmt.Fprintf(os.Stderr, "soak: wall budget %v too short: only %d chunks completed, need > %d for a steady-state verdict\n",
			dur, chunks, soakWarmupChunks)
		return 1
	}

	sysGrowth := int64(peakSys) - int64(baseSys)
	flatRSS := sysGrowth <= soakSysSlack
	allocsPerMEvent := float64(steadyAllocs) / (float64(steadyEvents) / 1e6)

	fmt.Printf("soak: %d chunks, %.2f virtual s, %d events, %.0f events/s wall\n",
		chunks, (sim.Duration(chunks) * soakChunk).Seconds(), totalEvents, float64(totalEvents)/wall.Seconds())
	fmt.Printf("soak: steady state %d allocs over %d events (%.3f/Mevent, worst chunk %.3f, budget %.1f)\n",
		steadyAllocs, steadyEvents, allocsPerMEvent, worstChunkAllocs, soakMaxAllocsPerMEvent)
	fmt.Printf("soak: go heap sys %.1f -> %.1f MiB (growth %d bytes, slack %d)\n",
		float64(baseSys)/(1<<20), float64(peakSys)/(1<<20), sysGrowth, soakSysSlack)
	if rss, ok := readVmRSS(); ok {
		fmt.Printf("soak: process VmRSS %.1f MiB\n", float64(rss)/(1<<20))
	}
	metricEvents := obs.Sim.Events.Value() - evCounterBefore
	fmt.Printf("soak: metrics gauges sampled every chunk; events counter %d, peak pool gauge %d\n",
		metricEvents, peakPool)

	switch {
	case violations > 0:
		fmt.Printf("soak: FAIL — %d chunk(s) exceeded the steady-state allocation budget\n", violations)
		return 1
	case !flatRSS:
		fmt.Printf("soak: FAIL — heap footprint grew %d bytes after warm-up (slack %d)\n", sysGrowth, soakSysSlack)
		return 1
	case metricEvents != totalEvents:
		fmt.Printf("soak: FAIL — metrics events counter saw %d of %d kernel events (flush path dead or double counting)\n",
			metricEvents, totalEvents)
		return 1
	case peakPool == 0:
		fmt.Printf("soak: FAIL — event pool gauge never set (chunk-boundary flush did not run)\n")
		return 1
	}
	fmt.Printf("soak: PASS — 0 allocs/op steady state, flat RSS, metrics path clean\n")
	return 0
}

// readVmRSS reports the process resident set from /proc/self/status, in
// bytes. Best effort: absent on non-Linux hosts.
func readVmRSS() (uint64, bool) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			fields := strings.Fields(f)
			if len(fields) >= 1 {
				kb, err := strconv.ParseUint(fields[0], 10, 64)
				if err == nil {
					return kb << 10, true
				}
			}
		}
	}
	return 0, false
}
