package cluster

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// TestClusterSweepFeedsMetrics runs a metrics-enabled loopback sweep and
// checks the three cluster-side surfaces: per-agent coordinator bundles
// (chunks + latency), the agent-process serve counters, and the
// AgentStats.Metrics rollup carried back in chunk trailers. The agents
// here share the test process, so the agent-side counters are observable
// directly.
func TestClusterSweepFeedsMetrics(t *testing.T) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)

	addr1, _ := startAgent(t)
	addr2, _ := startAgent(t)
	e, _, wantCSV := seqRender(t, "T1")

	agentChunksBefore := obs.Agent.Chunks.Value()
	deliveredBefore := obs.Cluster.PointsDelivered.Value()
	b1Before := obs.ClusterAgent(addr1).Chunks.Value()
	b2Before := obs.ClusterAgent(addr2).Chunks.Value()
	localBefore := obs.ClusterAgent(LocalAgentName).Chunks.Value()

	// The pause after each chunk guarantees the agents get to serve some.
	c := &Coordinator{Workers: fleet(1, addr1, addr2), Quick: true, stepDelay: 20 * time.Millisecond}
	res, err := c.Run(e)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Table.CSV(); got != wantCSV {
		t.Error("metrics-enabled cluster sweep not byte-identical to sequential")
	}

	if obs.Agent.Chunks.Value() == agentChunksBefore {
		t.Error("agent-side chunk counter did not move")
	}
	if d := obs.Cluster.PointsDelivered.Value() - deliveredBefore; d != uint64(e.Grid(true).N) {
		t.Errorf("points delivered counter moved by %d, want %d", d, e.Grid(true).N)
	}
	coordChunks := (obs.ClusterAgent(addr1).Chunks.Value() - b1Before) +
		(obs.ClusterAgent(addr2).Chunks.Value() - b2Before) +
		(obs.ClusterAgent(LocalAgentName).Chunks.Value() - localBefore)
	var statChunks int
	var trailerEvents uint64
	for _, a := range res.Agents {
		statChunks += a.Chunks
		trailerEvents += a.Metrics["wlan_sim_events_total"]
	}
	if coordChunks != uint64(statChunks) {
		t.Errorf("coordinator bundles saw %d chunks, AgentStats say %d", coordChunks, statChunks)
	}
	if lat := obs.ClusterAgent(LocalAgentName).ChunkLatency.Count() +
		obs.ClusterAgent(addr1).ChunkLatency.Count() +
		obs.ClusterAgent(addr2).ChunkLatency.Count(); lat == 0 {
		t.Error("no chunk latencies observed")
	}
	if trailerEvents == 0 {
		t.Error("chunk trailers carried no wlan_sim_events_total rollup")
	}
}
