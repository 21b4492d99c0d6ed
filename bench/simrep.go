package main

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/analytical"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

// opResult is the outcome of one operation inside one repetition.
type opResult struct {
	Name   string  `json:"name"`
	Digest string  `json:"digest"`
	Err    string  `json:"err,omitempty"`
	WallS  float64 `json:"wall_s"`
}

// repResult is what a repetition child prints on stdout. CPUS, RSSMiB and
// LateS are filled in by the parent from the child's rusage.
type repResult struct {
	SetupS float64            `json:"setup_s"`
	WallS  float64            `json:"wall_s"`
	Ops    []opResult         `json:"ops"`
	Layer  map[string]float64 `json:"layer"`
	CPUS   float64            `json:"cpu_s"`
	RSSMiB float64            `json:"peak_rss_mib"`
	LateS  float64            `json:"late_s"`
}

// digest hashes simulated results only: a change may remove events, cache
// lookups or allocations and still be correct, but it may not move these.
func digest(s *scenario) string {
	h := sha256.New()
	for i, g := range s.net.Generators() {
		fmt.Fprintf(h, "gen %d %d %d\n", i, g.Offered, g.Refused)
	}
	for _, id := range s.flows {
		if fs := s.net.FlowStats(id); fs != nil {
			fmt.Fprintf(h, "flow %d %d %d %x %d\n", id, fs.Received, fs.Bytes,
				fs.Latency.Mean()*float64(fs.Latency.N()), fs.MaxGap)
		}
	}
	for _, n := range s.net.Nodes() {
		digestNode(h, n)
	}
	if s.ess != nil {
		fmt.Fprintf(h, "ess %d\n", s.ess.Handoffs())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func digestNode(h hash.Hash, n *core.Node) {
	m := n.MAC.Stats()
	fmt.Fprintf(h, "mac %s %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d %d\n", n.Name,
		m.MSDUQueued, m.QueueDrops, m.DataTx, m.Retries, m.MSDUDelivered, m.MSDUDropped,
		m.RTSTx, m.CTSTx, m.CTSTimeouts, m.ACKTx, m.ACKTimeouts, m.RxData, m.RxDup,
		m.RxDeliver, m.NAVSets, m.EIFSDeferrals, m.BackoffSlots)
	r := n.Radio.Stats
	fmt.Fprintf(h, "radio %d %d %d %d %d %d %d\n", r.TxFrames, r.TxAirtime,
		r.RxFrames, r.RxErrors, r.RxAirtime, r.RxOverlaps, r.RxWhileTx)
	if n.STA != nil {
		s := n.STA.Stats
		fmt.Fprintf(h, "sta %d %d %d %d %d %d %d %d %d\n", s.Scans, s.BeaconsSeen,
			s.AuthAttempts, s.Associations, s.Roams, s.LinkLosses, s.TxPayloads,
			s.RxPayloads, s.DecryptErrors)
	}
	if n.AP != nil {
		a := n.AP.Stats
		fmt.Fprintf(h, "ap %d %d %d %d %d %d %d %d %d\n", a.BeaconsSent, a.AuthOK,
			a.AuthFail, a.Assocs, a.Relayed, a.ToDS, a.FromDS, a.DecryptErrors, a.Handoffs)
	}
}

// conservation checks one finished scenario: no flow delivers more than it
// sent, and the flows that must deliver do.
func conservation(s *scenario, minDelivery float64) error {
	var sent, received uint64
	gens := s.net.Generators()
	for _, id := range s.flows {
		g := gens[id-1]
		sent += g.Sent()
		fs := s.net.FlowStats(id)
		if fs == nil {
			continue
		}
		received += fs.Received
		if fs.Received > g.Sent() || fs.Bytes > g.Sent()*uint64(s.payload) {
			return fmt.Errorf("flow %d delivered %d pkts/%d B of %d sent", id, fs.Received, fs.Bytes, g.Sent())
		}
	}
	var queued uint64 // accepted by a MAC, not yet delivered or dropped
	for _, n := range s.net.Nodes() {
		queued += uint64(n.MAC.QueueLen())
		if n.MAC.Busy() {
			queued++
		}
	}
	if sent <= queued || float64(received) < minDelivery*float64(sent-queued) {
		return fmt.Errorf("delivered %d of %d packets (%d still queued), below the %.0f%% floor", received, sent, queued, 100*minDelivery)
	}
	return nil
}

// layerCounters folds one finished scenario's exact and simulated counters
// into the sums the per-layer metrics are computed from.
func layerCounters(c map[string]float64, s *scenario, op string) {
	k, m := s.net.Kernel(), s.net.Medium()
	buckets, cohortEvents := k.CohortSizes()
	var cohorts uint64
	for _, b := range buckets {
		cohorts += b
	}
	c["sim.events"] += float64(k.Processed())
	c["sim.heap_high_water"] = math.Max(c["sim.heap_high_water"], float64(k.HeapHighWater()))
	c["sim.cohort_events"] += float64(cohortEvents)
	c["sim.cohorts"] += float64(cohorts)
	c["medium.transmissions"] += float64(m.Transmissions)
	c["medium.fanout_candidates"] += float64(m.FanoutCandidates)
	c["medium.fanout_delivered"] += float64(m.FanoutDelivered)
	c["medium.link_cache_hits"] += float64(m.LinkCacheHits)
	c["medium.link_cache_misses"] += float64(m.LinkCacheMisses)
	c["medium.grid_migrations"] += float64(m.GridMigrations)
	// Per-op ratio; only the ops BENCHMARK.json names are reported.
	c["medium.link_cache_hit_ratio_"+op] = ratio(float64(m.LinkCacheHits), float64(m.LinkCacheHits+m.LinkCacheMisses))
	for _, n := range s.net.Nodes() {
		st := n.MAC.Stats()
		c["mac.data_tx"] += float64(st.DataTx)
		c["mac.retries"] += float64(st.Retries)
		c["mac.ack_timeouts"] += float64(st.ACKTimeouts)
		c["mac.msdu_dropped"] += float64(st.MSDUDropped)
		c["mac.queue_drops"] += float64(st.QueueDrops)
		c["mac.backoff_slots"] += float64(st.BackoffSlots)
		c["medium.rx_frames"] += float64(n.Radio.Stats.RxFrames)
		c["medium.rx_errors"] += float64(n.Radio.Stats.RxErrors)
		if n.STA != nil {
			c["net80211.scans"] += float64(n.STA.Stats.Scans)
			c["net80211.auth_attempts"] += float64(n.STA.Stats.AuthAttempts)
			c["net80211.roams"] += float64(n.STA.Stats.Roams)
			c["net80211.decrypt_errors"] += float64(n.STA.Stats.DecryptErrors)
		}
		if n.AP != nil {
			c["net80211.decrypt_errors"] += float64(n.AP.Stats.DecryptErrors)
		}
	}
	if s.ess != nil {
		c["net80211.handoffs"] += float64(s.ess.Handoffs())
	}
	gens := s.net.Generators()
	for _, id := range s.flows {
		c["traffic.offered"] += float64(gens[id-1].Offered)
		c["traffic.refused"] += float64(gens[id-1].Refused)
		if fs := s.net.FlowStats(id); fs != nil {
			c["traffic.received"] += float64(fs.Received)
			c["traffic.bytes"] += float64(fs.Bytes)
			c["traffic.latency_sum_s"] += fs.Latency.Mean() * float64(fs.Latency.N())
		}
	}
	c["traffic.virtual_s"] += s.net.Elapsed().Seconds()
	if s.bianchi > 0 {
		ref := analytical.Bianchi(s.bianchi, analytical.BianchiParams{
			Mode: s.net.Mode(), DataRate: s.net.Mode().MaxRate(), PayloadBytes: s.payload}).Throughput
		errPct := 100 * math.Abs(s.net.AggregateThroughput()-ref) / ref
		c["analytical.bianchi_err_pct"] = math.Max(c["analytical.bianchi_err_pct"], errPct)
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// finishLayer turns the summed counters into the derived per-layer metrics.
func finishLayer(c map[string]float64) {
	c["sim.cohort_mean"] = ratio(c["sim.cohort_events"], c["sim.cohorts"])
	c["medium.fanout_per_tx"] = ratio(c["medium.fanout_candidates"], c["medium.transmissions"])
	c["medium.fanout_useful_ratio"] = ratio(c["medium.fanout_delivered"], c["medium.fanout_candidates"])
	c["medium.link_cache_hit_ratio"] = ratio(c["medium.link_cache_hits"], c["medium.link_cache_hits"]+c["medium.link_cache_misses"])
	c["medium.rx_error_ratio"] = ratio(c["medium.rx_errors"], c["medium.rx_errors"]+c["medium.rx_frames"])
	c["mac.retry_ratio"] = ratio(c["mac.retries"], c["mac.data_tx"])
	sent := c["traffic.offered"] - c["traffic.refused"]
	c["traffic.delivery_ratio"] = ratio(c["traffic.received"], sent)
	c["traffic.goodput_bps"] = ratio(8*c["traffic.bytes"], c["traffic.virtual_s"])
	c["traffic.latency_mean_ms"] = 1000 * ratio(c["traffic.latency_sum_s"], c["traffic.received"])
}

// opSeed derives the seed of a workload's i-th op, so the ops of one
// repetition see independent draws and seed-to-seed variation averages out
// over them.
func opSeed(seed uint64, i int) uint64 { return seed*16 + uint64(i) }

// simRep runs one repetition of a simulation workload in this process:
// per op, build + warm-up (set-up), then the timed Run. mode is "timed",
// "traced" (spans + probes) or "obs" (live metrics on, for obs.overhead_pct).
func simRep(w *workload, seed uint64, tiny bool, mode string, started time.Time) repResult {
	res := repResult{Layer: map[string]float64{}}
	if mode == "obs" {
		obs.SetEnabled(true)
		core.MetricsEvery = 100 * sim.Millisecond
	}
	var tr *tracer
	if mode == "traced" {
		tr = newTracer()
	}
	var probeFrom []*scenario
	var ms0, ms1 runtime.MemStats
	setupStart := started
	for i, op := range w.ops {
		buildStart := time.Now()
		s := op.build(opSeed(seed, i), tiny)
		res.Layer["core.build_s"] += time.Since(buildStart).Seconds()
		s.net.Run(warmUp(tiny))
		if tr != nil {
			tr.attach(s.net)
		}
		runtime.ReadMemStats(&ms0)
		res.SetupS += time.Since(setupStart).Seconds()

		t0 := time.Now()
		if tr != nil {
			tr.begin(t0)
		}
		s.net.Run(s.dur)
		wall := time.Since(t0)
		if tr != nil {
			tr.end(t0.Add(wall))
		}
		res.WallS += wall.Seconds()

		runtime.ReadMemStats(&ms1)
		res.Layer["core.allocs"] += float64(ms1.Mallocs - ms0.Mallocs)
		res.Layer["core.alloc_bytes"] += float64(ms1.TotalAlloc - ms0.TotalAlloc)
		res.Layer["core.gc_cycles"] += float64(ms1.NumGC - ms0.NumGC)
		res.Layer["core.gc_pause_s"] += float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9

		or := opResult{Name: op.name, Digest: digest(s), WallS: wall.Seconds()}
		if err := conservation(s, op.minDelivery); err != nil {
			or.Err = err.Error()
		}
		res.Ops = append(res.Ops, or)
		layerCounters(res.Layer, s, op.name)
		if tr != nil {
			probeFrom = append(probeFrom, s)
		}
		// Collect the finished scenario now: left to the pacer, it is or is
		// not still resident while the next op builds, and peak RSS of one
		// seed then ranges over 20 %.
		runtime.GC()
		setupStart = time.Now() // digest, accounting and collection above are the benchmark's, not set-up
	}
	finishLayer(res.Layer)
	if tr != nil {
		tr.report(res.Layer)
		if err := tr.dump(w.name); err != nil {
			fmt.Fprintln(os.Stderr, "bench: trace dump:", err)
		}
		runProbes(res.Layer, w, probeFrom, seed, tiny, tr)
	}
	return res
}
