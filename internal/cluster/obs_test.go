package cluster

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestClusterSweepFeedsMetrics runs a metrics-enabled loopback sweep and
// checks the cluster-side surfaces: per-agent coordinator bundles (chunks +
// latency) and the agent-process serve counters. The agents here share the
// test process, so the agent-side counters are observable directly. What a
// worker answers with must not depend on any of it: the bytes ServePipe
// writes for a run request are the same with metrics on and off.
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
	table, res, err := runOne(c, e)
	if err != nil {
		t.Fatal(err)
	}
	if got := table.CSV(); got != wantCSV {
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
	var statPoints int
	for _, a := range res.Agents {
		statPoints += a.Points
	}
	if coordChunks != uint64(statPoints) {
		t.Errorf("coordinator bundles saw %d chunks, AgentStats say %d points", coordChunks, statPoints)
	}
	if lat := obs.ClusterAgent(LocalAgentName).ChunkLatency.Count() +
		obs.ClusterAgent(addr1).ChunkLatency.Count() +
		obs.ClusterAgent(addr2).ChunkLatency.Count(); lat == 0 {
		t.Error("no chunk latencies observed")
	}

	serve := func(on bool) string {
		obs.SetEnabled(on)
		var out bytes.Buffer
		new(Agent).ServePipe(strings.NewReader(formatRunRequest(e.ID, true, []int{0, 2})+"\n"), &out)
		return out.String()
	}
	on, off := serve(true), serve(false)
	if on != off || !strings.HasSuffix(on, "# stats points=2 rows=2\n# end\n") {
		t.Errorf("a run response depends on metrics collection:\n--- on\n%s--- off\n%s", on, off)
	}
}
