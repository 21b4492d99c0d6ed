package obs

// Bundles are the repo's metric families, registered into Default at
// package init (or, for per-agent metrics, at supervisor start via
// ClusterAgent). Grouping them here keeps naming in one place and gives
// instrumentation sites a typed handle instead of a string lookup.

// cohortBounds are the inclusive upper edges for the cohort-size
// histogram, a cohort being a run of consecutively executed events that
// share a timestamp. They mirror the sim kernel's power-of-two bucket
// array: kernel bucket i (lengths in (2^(i-1), 2^i]) folds into histogram
// bucket i, with the 8th kernel bucket landing in +Inf.
var cohortBounds = []uint64{1, 2, 4, 8, 16, 32, 64}

// SimMetrics is the kernel family. The kernel itself never touches these —
// it keeps plain per-instance counters and internal/core flushes the
// deltas here at run-chunk boundaries. All values are sim-time quantities.
type SimMetrics struct {
	Events        *Counter   // events executed
	CohortSize    *Histogram // lengths of same-timestamp event runs
	NowNs         *Gauge     // sim clock, nanoseconds
	HeapDepth     *Gauge     // pending events in the SoA heap
	HeapHighWater *Gauge     // max heap depth seen
	PoolEvents    *Gauge     // pooled event slots allocated
	PoolFree      *Gauge     // pooled event slots on the free list
}

// Sim is the kernel bundle on the Default registry.
var Sim = SimMetrics{
	Events:        Default.Counter("wlan_sim_events_total", "Simulation events executed by the kernel."),
	CohortSize:    Default.Histogram("wlan_sim_cohort_size", "Length of runs of consecutively executed events sharing one timestamp.", cohortBounds),
	NowNs:         Default.Gauge("wlan_sim_now_ns", "Current simulation clock in virtual nanoseconds."),
	HeapDepth:     Default.Gauge("wlan_sim_heap_depth", "Events pending in the kernel's SoA heap."),
	HeapHighWater: Default.Gauge("wlan_sim_heap_high_water", "Maximum heap depth observed since process start."),
	PoolEvents:    Default.Gauge("wlan_sim_event_pool", "Event slots allocated in the kernel's pool."),
	PoolFree:      Default.Gauge("wlan_sim_event_pool_free", "Event slots currently on the kernel's free list."),
}

// MediumMetrics is the propagation-layer family, flushed by internal/core
// from the medium's plain diagnostic counters.
type MediumMetrics struct {
	Transmissions    *Counter // transmissions started
	FanoutCandidates *Counter // receivers walked across transmissions
	FanoutDelivered  *Counter // arrivals actually scheduled
	LinkCacheHits    *Counter // fan-out row entries served
	LinkCacheMisses  *Counter // static links computed while (re)building rows
}

// Medium is the propagation bundle on the Default registry.
var Medium = MediumMetrics{
	Transmissions:    Default.Counter("wlan_medium_transmissions_total", "Transmissions started on the shared medium."),
	FanoutCandidates: Default.Counter("wlan_medium_fanout_candidates_total", "Candidate receivers walked: fan-out row entries, and radios whose link is computed per transmission."),
	FanoutDelivered:  Default.Counter("wlan_medium_fanout_delivered_total", "Arrivals actually scheduled on candidate receivers."),
	LinkCacheHits:    Default.Counter("wlan_medium_link_cache_hits_total", "Precomputed static links served from transmitters' fan-out rows."),
	LinkCacheMisses:  Default.Counter("wlan_medium_link_cache_misses_total", "Static links computed while (re)building fan-out rows."),
}

// ClusterMetrics is the coordinator-side family that is not per-agent.
type ClusterMetrics struct {
	QueueDepth      *Gauge   // chunks waiting in the steal queue
	Redispatched    *Counter // chunks requeued after a failed dispatch
	PointsDelivered *Counter // grid points whose rows merged exactly-once
}

// Cluster is the coordinator bundle on the Default registry.
var Cluster = ClusterMetrics{
	QueueDepth:      Default.Gauge("wlan_cluster_steal_queue_depth", "Chunks waiting in the coordinator's steal queue."),
	Redispatched:    Default.Counter("wlan_cluster_redispatched_total", "Chunks requeued after a failed or expired dispatch."),
	PointsDelivered: Default.Counter("wlan_cluster_points_delivered_total", "Grid points delivered exactly-once to the merger."),
}

// AgentMetrics is the agent-process family (the serving side of the
// cluster protocol).
type AgentMetrics struct {
	Chunks *Counter // chunk requests served
	Points *Counter // grid points simulated for those chunks
}

// Agent is the agent-side bundle on the Default registry.
var Agent = AgentMetrics{
	Chunks: Default.Counter("wlan_agent_chunks_total", "Chunk requests served by this agent process."),
	Points: Default.Counter("wlan_agent_points_total", "Grid points simulated by this agent process."),
}

// CheckpointMetrics is the durability family for the sweep journal.
type CheckpointMetrics struct {
	Fsyncs *Counter // fsync calls on the checkpoint journal
	Bytes  *Counter // bytes appended to the journal
}

// Checkpoint is the journal bundle on the Default registry.
var Checkpoint = CheckpointMetrics{
	Fsyncs: Default.Counter("wlan_checkpoint_fsyncs_total", "fsync calls issued by the checkpoint journal."),
	Bytes:  Default.Counter("wlan_checkpoint_bytes_total", "Bytes appended to the checkpoint journal."),
}

// chunkLatencyBounds cover dispatch round-trips from sub-millisecond
// loopback chunks to WAN-scale multi-second ones, in nanoseconds.
var chunkLatencyBounds = []uint64{
	1e6, 4e6, 16e6, 64e6, 256e6, 1e9, 4e9, 16e9,
}

// heartbeatRTTBounds cover ping/pong round-trips from loopback
// microseconds to a saturated-WAN second, in nanoseconds.
var heartbeatRTTBounds = []uint64{
	50e3, 200e3, 1e6, 5e6, 25e6, 100e6, 1e9,
}

// AgentBundle is the per-agent coordinator-side family, labeled by agent
// address ("local" for the coordinator's in-process agent).
type AgentBundle struct {
	Chunks       *Counter   // chunks this agent completed
	ChunkLatency *Histogram // per-chunk dispatch round-trip, ns (wall clock, coordinator side)
	Retries      *Counter   // dial retries during supervision
	Readmits     *Counter   // times the agent was re-admitted after being marked dead
	HeartbeatRTT *Histogram // ping/pong round-trip, ns
}

// ClusterAgent returns the per-agent bundle for addr, registering it on
// first use. Idempotent: supervisors re-register on every Coordinator.Run
// and always get the same registers back.
func ClusterAgent(addr string) AgentBundle {
	l := Label{Key: "agent", Value: addr}
	return AgentBundle{
		Chunks:       Default.Counter("wlan_cluster_chunks_total", "Chunks completed per agent.", l),
		ChunkLatency: Default.Histogram("wlan_cluster_chunk_latency_ns", "Per-chunk dispatch round-trip latency in nanoseconds, coordinator side.", chunkLatencyBounds, l),
		Retries:      Default.Counter("wlan_cluster_retries_total", "Dial retries during agent supervision.", l),
		Readmits:     Default.Counter("wlan_cluster_readmits_total", "Times a dead agent was re-probed and re-admitted.", l),
		HeartbeatRTT: Default.Histogram("wlan_cluster_heartbeat_rtt_ns", "Heartbeat ping/pong round-trip in nanoseconds.", heartbeatRTTBounds, l),
	}
}
