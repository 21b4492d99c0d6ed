package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "help")
	c2 := r.Counter("x_total", "other help ignored")
	if c1 != c2 {
		t.Fatal("same name returned distinct counters")
	}
	a := r.Counter("y_total", "h", Label{Key: "agent", Value: "a"}, Label{Key: "zone", Value: "1"})
	// Label order must not matter: sorted rendering keys the lookup.
	b := r.Counter("y_total", "h", Label{Key: "zone", Value: "1"}, Label{Key: "agent", Value: "a"})
	if a != b {
		t.Fatal("label order changed identity")
	}
	c := r.Counter("y_total", "h", Label{Key: "agent", Value: "b"})
	if a == c {
		t.Fatal("distinct label values shared a register")
	}
	h1 := r.Histogram("z", "h", []uint64{1, 2, 4})
	h2 := r.Histogram("z", "h", []uint64{10, 20}) // bounds ignored on re-find
	if h1 != h2 {
		t.Fatal("same histogram name returned distinct instances")
	}
	if got := len(h1.bounds); got != 3 {
		t.Fatalf("first registration's bounds should win, got %d bounds", got)
	}
}

// TestConcurrentRegistrationSharesOneInstrument registers one histogram
// and one counter from several goroutines, as two cluster supervisors do
// with the same agent bundle. Each must get the same instrument, and under
// -race the registration must not race with itself.
func TestConcurrentRegistrationSharesOneInstrument(t *testing.T) {
	r := NewRegistry()
	const n = 8
	hs := make([]*Histogram, n)
	cs := make([]*Counter, n)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range n {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			hs[i] = r.Histogram("rtt", "h", []uint64{1, 2, 4}, Label{Key: "agent", Value: "a"})
			cs[i] = r.Counter("chunks_total", "h", Label{Key: "agent", Value: "a"})
		}()
	}
	start.Done()
	done.Wait()
	for i := 1; i < n; i++ {
		if hs[i] != hs[0] || cs[i] != cs[0] {
			t.Fatalf("goroutine %d got its own instrument", i)
		}
	}
}

func TestRegistryKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("clash", "h")
}

func TestHistogramBoundsValidation(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds did not panic")
		}
	}()
	r.Histogram("bad", "h", []uint64{5, 5})
}

func TestInstrumentValues(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}

	g := r.Gauge("g", "h")
	g.Set(-7)
	if got := g.Value(); got != -7 {
		t.Fatalf("gauge = %d, want -7", got)
	}
	g.SetMax(3)
	g.SetMax(1) // lower: ignored
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge after SetMax = %d, want 3", got)
	}

	h := r.Histogram("h", "h", []uint64{10, 100})
	h.Observe(5)   // bucket 0
	h.Observe(10)  // bucket 0 (inclusive upper edge)
	h.Observe(11)  // bucket 1
	h.Observe(500) // +Inf bucket
	if got := h.Count(); got != 4 {
		t.Fatalf("count = %d, want 4", got)
	}
	if got := h.Sum(); got != 526 {
		t.Fatalf("sum = %d, want 526", got)
	}
	want := []uint64{2, 1, 1}
	for i, w := range want {
		if got := h.buckets[i].Load(); got != w {
			t.Fatalf("bucket[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestHistogramAddBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "h", []uint64{1, 2, 4})
	h.AddBuckets([]uint64{3, 0, 2}, 13)
	if got := h.Count(); got != 5 {
		t.Fatalf("count = %d, want 5", got)
	}
	if got := h.Sum(); got != 13 {
		t.Fatalf("sum = %d, want 13", got)
	}
	// Oversized delta slices must not panic or write out of range.
	h.AddBuckets([]uint64{0, 0, 0, 0, 7, 9}, 0)
	if got := h.Count(); got != 5 {
		t.Fatalf("out-of-range deltas changed count: %d", got)
	}
}

// TestZeroAllocHotPath is the wall the tentpole promises: every hot-path
// instrument update is exactly 0 allocs/op.
func TestZeroAllocHotPath(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	g := r.Gauge("g", "h")
	h := r.Histogram("h", "h", cohortBounds)
	deltas := make([]uint64, 8)
	deltas[3] = 2
	cases := map[string]func(){
		"counter.Add":         func() { c.Add(3) },
		"counter.Inc":         func() { c.Inc() },
		"gauge.Set":           func() { g.Set(9) },
		"gauge.SetMax":        func() { g.SetMax(1 << 40) },
		"histogram.Observe":   func() { h.Observe(17) },
		"histogram.AddBucket": func() { h.AddBuckets(deltas, 12) },
		"enabled":             func() { _ = Enabled() },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(1000, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

func TestExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("wlan_b_total", "second family").Add(7)
	r.Counter("wlan_a_total", "first family", Label{Key: "kind", Value: "tx"}).Add(2)
	r.Counter("wlan_a_total", "first family", Label{Key: "kind", Value: "rx"}).Add(3)
	r.Gauge("wlan_g", "a gauge").Set(-4)
	h := r.Histogram("wlan_h", "a histogram", []uint64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000)

	var sb strings.Builder
	n, err := r.WriteTo(&sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if n != int64(len(out)) {
		t.Fatalf("WriteTo returned %d, wrote %d bytes", n, len(out))
	}
	want := `# HELP wlan_a_total first family
# TYPE wlan_a_total counter
wlan_a_total{kind="rx"} 3
wlan_a_total{kind="tx"} 2
# HELP wlan_b_total second family
# TYPE wlan_b_total counter
wlan_b_total 7
# HELP wlan_g a gauge
# TYPE wlan_g gauge
wlan_g -4
# HELP wlan_h a histogram
# TYPE wlan_h histogram
wlan_h_bucket{le="10"} 1
wlan_h_bucket{le="100"} 2
wlan_h_bucket{le="+Inf"} 3
wlan_h_sum 5055
wlan_h_count 3
`
	if out != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

func TestExpositionLabeledHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("wlan_lat", "latency", []uint64{10}, Label{Key: "agent", Value: "a:1"})
	h.Observe(3)
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`wlan_lat_bucket{agent="a:1",le="10"} 1`,
		`wlan_lat_bucket{agent="a:1",le="+Inf"} 1`,
		`wlan_lat_sum{agent="a:1"} 3`,
		`wlan_lat_count{agent="a:1"} 1`,
	} {
		if !strings.Contains(sb.String(), line+"\n") {
			t.Errorf("missing line %q in:\n%s", line, sb.String())
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	got := renderLabels([]Label{{Key: "p", Value: "a\"b\\c\nd"}})
	want := `{p="a\"b\\c\nd"}`
	if got != want {
		t.Fatalf("renderLabels = %q, want %q", got, want)
	}
}

func TestEnabledSwitch(t *testing.T) {
	defer SetEnabled(false)
	if Enabled() {
		t.Fatal("metrics enabled by default")
	}
	SetEnabled(true)
	if !Enabled() {
		t.Fatal("SetEnabled(true) not observed")
	}
}

func TestServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("wlan_demo_total", "demo").Add(5)
	addr, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	if !strings.Contains(string(body), "wlan_demo_total 5") {
		t.Fatalf("scrape missing counter:\n%s", body)
	}
	// pprof rides the same mux.
	resp, err = http.Get(fmt.Sprintf("http://%s/debug/pprof/", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d", resp.StatusCode)
	}
}

func TestDefaultBundlesRegistered(t *testing.T) {
	// The package-level bundles must exist on Default with the documented
	// families; ClusterAgent must be idempotent.
	var sb strings.Builder
	if _, err := Default.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, fam := range []string{
		"wlan_sim_events_total", "wlan_sim_cohort_size", "wlan_sim_now_ns",
		"wlan_sim_heap_depth", "wlan_sim_heap_high_water",
		"wlan_sim_event_pool", "wlan_sim_event_pool_free",
		"wlan_medium_transmissions_total", "wlan_medium_fanout_candidates_total",
		"wlan_medium_fanout_delivered_total", "wlan_medium_link_cache_hits_total",
		"wlan_medium_link_cache_misses_total",
		"wlan_cluster_steal_queue_depth", "wlan_cluster_redispatched_total",
		"wlan_cluster_points_delivered_total",
		"wlan_agent_chunks_total", "wlan_agent_points_total",
		"wlan_checkpoint_fsyncs_total", "wlan_checkpoint_bytes_total",
		"wlan_obs_scrapes_total",
	} {
		if !strings.Contains(out, "# TYPE "+fam+" ") {
			t.Errorf("Default registry missing family %s", fam)
		}
	}
	a := ClusterAgent("127.0.0.1:9999")
	b := ClusterAgent("127.0.0.1:9999")
	if a.Chunks != b.Chunks || a.ChunkLatency != b.ChunkLatency {
		t.Fatal("ClusterAgent not idempotent")
	}
}
