// Package obs is the zero-allocation, determinism-safe metrics subsystem:
// counters, gauges and fixed-bucket histograms backed by padded atomic
// registers, registered once at construction so the hot path is a single
// atomic add. It feeds one consumer — the Prometheus text-exposition HTTP
// endpoint behind the -metrics flag (see Serve), one per process, sweep
// agents included — without touching the byte-identity of any experiment
// table.
//
// # Determinism contract
//
// obs is a sim-deterministic package (enforced by the determinism
// analyzer): instruments carry no timestamps of their own, values stamped
// into them by sim code are sim-time quantities only, and the package never
// reads the wall clock outside the HTTP layer, where the scrape-time gauge
// carries an audited //wlan:allow-nondeterminism escape. The sim kernel and
// medium do not even import obs — they keep plain per-instance counters
// that internal/core flushes into the global registry at run-chunk
// boundaries — so enabling metrics cannot perturb event order, and the
// quick experiment suite with -metrics stays byte-identical to sequential
// output.
//
// # Concurrency and cost
//
// Instrument updates are single atomic operations on registers padded to
// their own cache lines, safe from any goroutine. Registration takes the
// registry mutex and allocates; do it at construction time (package init,
// supervisor start), never per event. Add/Set/Observe are
// //wlan:hotpath-clean: the hotpathalloc analyzer and the 0-alloc walls in
// this package's tests pin them at zero allocations.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// pad is one cache line of padding. Each instrument owns its line so two
// hot counters updated by different goroutines never false-share.
type pad [64]byte

// Counter is a monotonically increasing register.
type Counter struct {
	_ pad
	v atomic.Uint64
	_ pad
}

// Add increments the counter by n.
//
//wlan:hotpath
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
//
//wlan:hotpath
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a last-writer-wins register for instantaneous values (queue
// depths, pool occupancy, the sim clock).
type Gauge struct {
	_ pad
	v atomic.Int64
	_ pad
}

// Set stores the current value.
//
//wlan:hotpath
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// SetMax raises the gauge to v if v is larger (high-water marks).
//
//wlan:hotpath
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket integer histogram. Bounds are inclusive
// upper edges in ascending order; one implicit +Inf bucket catches the
// rest. Values are plain uint64s — callers pick the unit (nanoseconds for
// latencies, counts for sizes) and the bounds to match.
type Histogram struct {
	_     pad
	count atomic.Uint64
	sum   atomic.Uint64
	_     pad
	// buckets[i] counts observations <= bounds[i]; buckets[len(bounds)] is
	// the +Inf bucket. Cumulative totals are computed at exposition time.
	buckets []atomic.Uint64
	bounds  []uint64
}

// Observe records one value. Bucket search is a linear scan — bounds are a
// dozen entries at most, and the scan beats a branchy binary search on
// arrays this small.
//
//wlan:hotpath
func (h *Histogram) Observe(v uint64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// AddBuckets folds pre-aggregated observations in: deltas[i] observations
// landed in bucket i (deltas may be shorter than the bucket count), with
// their values summing to sum. This is the flush-side ingestion path —
// internal/core aggregates cohort sizes in plain per-kernel arrays and
// folds the deltas in at chunk boundaries instead of paying an atomic
// per event.
//
//wlan:hotpath
func (h *Histogram) AddBuckets(deltas []uint64, sum uint64) {
	var total uint64
	for i, d := range deltas {
		if d == 0 || i >= len(h.buckets) {
			continue
		}
		h.buckets[i].Add(d)
		total += d
	}
	h.count.Add(total)
	h.sum.Add(sum)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Label is one name/value pair attached to a metric.
type Label struct {
	Key, Value string
}

// metricKind discriminates the instrument behind a registry entry.
type metricKind int

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	}
	return "unknown"
}

// metric is one registered instrument with its identity.
type metric struct {
	name   string // family name
	labels string // rendered {k="v",...} block, "" when unlabeled
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family carries the per-name metadata shared by all label variants.
type family struct {
	help string
	kind metricKind
}

// Registry holds registered instruments and renders them. Registration is
// idempotent: asking for the same (name, labels) again returns the
// existing instrument, so construction code may run more than once per
// process (e.g. one Coordinator.Run per experiment). Asking for the same
// name with a different kind panics — that is a programming error, not a
// runtime condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	metrics  map[string]*metric // key: name + rendered labels
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families: make(map[string]*family),
		metrics:  make(map[string]*metric),
	}
}

// Default is the process-global registry every built-in bundle registers
// into and the -metrics endpoint serves.
var Default = NewRegistry()

// enabled gates the flush-side instrumentation (core's run-chunk flushes).
// Individual atomic adds are cheap enough to run unconditionally; the
// switch exists so the chunked-Run flush cadence only engages when someone
// asked for metrics.
var enabled atomic.Bool

// Enabled reports whether metrics collection was requested (-metrics).
//
//wlan:hotpath
func Enabled() bool { return enabled.Load() }

// SetEnabled turns metrics collection on or off process-wide.
func SetEnabled(on bool) { enabled.Store(on) }

// renderLabels produces the canonical exposition label block. Labels are
// sorted by key so the same set always renders — and registers — the same.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the exposition-format escapes for label values.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register returns the existing entry for (name, labels) or creates one.
func (r *Registry) register(name, help string, kind metricKind, labels []Label) *metric {
	lb := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{help: help, kind: kind}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s re-registered as %v, was %v", name, kind, f.kind))
	}
	key := name + lb
	if m := r.metrics[key]; m != nil {
		return m
	}
	m := &metric{name: name, labels: lb, kind: kind}
	r.metrics[key] = m
	return m
}

// Counter registers (or finds) a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.register(name, help, counterKind, labels)
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m := r.register(name, help, gaugeKind, labels)
	if m.g == nil {
		m.g = &Gauge{}
	}
	return m.g
}

// Histogram registers (or finds) a histogram with the given inclusive
// upper bucket bounds (ascending; the +Inf bucket is implicit). Re-finding
// an existing histogram ignores the bounds argument — the first
// registration wins.
func (r *Registry) Histogram(name, help string, bounds []uint64, labels ...Label) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %s bounds not ascending: %v", name, bounds))
		}
	}
	m := r.register(name, help, histogramKind, labels)
	if m.h == nil {
		b := make([]uint64, len(bounds))
		copy(b, bounds)
		m.h = &Histogram{buckets: make([]atomic.Uint64, len(b)+1), bounds: b}
	}
	return m.h
}
