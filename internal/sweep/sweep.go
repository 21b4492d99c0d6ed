// Package sweep is the data format of full-fidelity evaluation sweeps and
// the worker side of the engine: the shard wire format a worker answers a
// chunk request with (WriteShard, ParseShard), the worker-side evaluation
// of an explicit point list into that format (RunWorkerPoints), the merge of
// per-point rows into a table byte-identical to the sequential run (Merge),
// and the crash-safe checkpoint journal built from the same records. Which
// point runs where is decided elsewhere — internal/cluster is the engine.
//
// # Shard format
//
// The format is line-oriented CSV with `#`-prefixed framing so a shard dump
// is also a readable artifact:
//
//	# sweep v1 exp=F1 shard=0/1 quick=true
//	# point 0
//	1,0.85,0.80,0.84,0.79
//	# point 2
//	10,4.71,4.40,4.60,4.47
//	# stats points=2 rows=2 wall_ns=41873232 allocs=10352 bytes=1204224 events=1310720
//	# end
//
// Because rows carry the exact pre-rendered cells, the parent can rebuild
// the table skeleton locally (same binary, same grid) and append the rows
// in point order; Render and CSV output are then byte-identical to the
// sequential run. That property is pinned by TestMergeDeterminism.
package sweep

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Header identifies one shard's output.
type Header struct {
	Exp    string
	Shard  int
	Shards int
	Quick  bool
}

// ShardStats is a worker's self-measured cost for one chunk, rolled up by
// the coordinator per worker.
type ShardStats struct {
	Shard  int    `json:"shard"`
	Points int    `json:"points"`
	Rows   int    `json:"rows"`
	WallNs int64  `json:"wall_ns"`
	Allocs uint64 `json:"allocs"`
	Bytes  uint64 `json:"bytes"`
	Events uint64 `json:"events"`
	// Metrics holds per-run obs counter deltas (keyed by metric
	// name+labels), populated only when metrics collection is enabled.
	// They ride the wire as `# metric` trailer lines after `# stats` —
	// unknown to older parsers, outside the row data, and excluded from
	// checkpoint duplicate comparison, so they never perturb table bytes.
	Metrics map[string]uint64 `json:"metrics,omitempty"`
}

// RunWorkerPoints evaluates an explicit point subset of e, one point after
// another, and writes the shard format to w. It is the whole worker side of
// the engine: the agent's serve loop calls it for every chunk request,
// whether the request arrived over TCP or over a subprocess's stdin. The
// trailer's allocs/bytes/events are process-global deltas, exact only while
// the process evaluates one chunk at a time.
func RunWorkerPoints(e *harness.Experiment, pts []int, quick bool, w io.Writer) error {
	g := e.Grid(quick)
	seen := make(map[int]bool, len(pts))
	for _, p := range pts {
		if p < 0 || p >= g.N {
			return fmt.Errorf("sweep: point %d outside grid of %d", p, g.N)
		}
		if seen[p] {
			return fmt.Errorf("sweep: point %d requested twice", p)
		}
		seen[p] = true
	}

	var msBefore, msAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msBefore)
	evBefore := core.SimEvents()
	var obsBefore map[string]uint64
	if obs.Enabled() {
		obsBefore = obs.Default.CounterSnapshot(workerMetricPrefixes...)
	}
	t0 := time.Now()
	byPoint := make(map[int][][]string, len(pts))
	rows := 0
	for _, p := range pts {
		byPoint[p] = g.Point(p)
		rows += len(byPoint[p])
	}
	wall := time.Since(t0)
	runtime.ReadMemStats(&msAfter)

	st := ShardStats{
		Points: len(pts),
		Rows:   rows,
		WallNs: wall.Nanoseconds(),
		Allocs: msAfter.Mallocs - msBefore.Mallocs,
		Bytes:  msAfter.TotalAlloc - msBefore.TotalAlloc,
		Events: core.SimEvents() - evBefore,
	}
	if obsBefore != nil {
		st.Metrics = diffCounters(obsBefore, obs.Default.CounterSnapshot(workerMetricPrefixes...))
	}
	return WriteShard(w, Header{Exp: e.ID, Shards: 1, Quick: quick}, byPoint, st)
}

// FormatPoints encodes a chunk's point list for a run request. The empty
// list encodes as "none" so the field never disappears from the line.
func FormatPoints(pts []int) string {
	if len(pts) == 0 {
		return "none"
	}
	var b strings.Builder
	for i, p := range pts {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(p))
	}
	return b.String()
}

// ParsePoints decodes a FormatPoints value. It does not validate against a
// grid — RunWorkerPoints re-checks range and uniqueness.
func ParsePoints(spec string) ([]int, error) {
	if spec == "none" {
		return []int{}, nil
	}
	parts := strings.Split(spec, ",")
	pts := make([]int, 0, len(parts))
	for _, s := range parts {
		p, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("sweep: bad point list %q: %v", spec, err)
		}
		pts = append(pts, p)
	}
	return pts, nil
}

// WriteShard encodes one shard's row groups in the wire format. Cells must
// round-trip through one CSV line each; a cell containing a comma, a
// newline or a leading '#' cannot, and makes WriteShard fail loudly rather
// than corrupt the merged table.
func WriteShard(w io.Writer, h Header, byPoint map[int][][]string, st ShardStats) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# sweep v1 exp=%s shard=%d/%d quick=%t\n", h.Exp, h.Shard, h.Shards, h.Quick)
	pts := make([]int, 0, len(byPoint))
	for p := range byPoint {
		pts = append(pts, p)
	}
	sort.Ints(pts)
	for _, p := range pts {
		fmt.Fprintf(bw, "# point %d\n", p)
		for _, row := range byPoint[p] {
			for i, cell := range row {
				if strings.ContainsAny(cell, ",\n") || strings.HasPrefix(cell, "#") {
					return fmt.Errorf("sweep: cell %q of %s point %d cannot round-trip the wire format", cell, h.Exp, p)
				}
				if i > 0 {
					bw.WriteByte(',')
				}
				bw.WriteString(cell)
			}
			bw.WriteByte('\n')
		}
	}
	fmt.Fprintf(bw, "# stats points=%d rows=%d wall_ns=%d allocs=%d bytes=%d events=%d\n",
		st.Points, st.Rows, st.WallNs, st.Allocs, st.Bytes, st.Events)
	if len(st.Metrics) > 0 {
		names := make([]string, 0, len(st.Metrics))
		for name := range st.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(bw, "# metric %s %d\n", name, st.Metrics[name])
		}
	}
	fmt.Fprintf(bw, "# end\n")
	return bw.Flush()
}

// workerMetricPrefixes selects the counter families a worker reports in
// its stats trailer: only the sim/medium/trace families its own point set
// drives, so the trailer is a pure function of the chunk. Coordinator-side
// cluster counters (racing in other goroutines of the same process) are
// deliberately excluded.
var workerMetricPrefixes = []string{"wlan_sim_", "wlan_medium_", "wlan_trace_"}

// diffCounters returns after-minus-before, dropping zero deltas; nil when
// nothing moved.
func diffCounters(before, after map[string]uint64) map[string]uint64 {
	d := make(map[string]uint64, len(after))
	for k, v := range after {
		if dv := v - before[k]; dv > 0 {
			d[k] = dv
		}
	}
	if len(d) == 0 {
		return nil
	}
	return d
}

// ParseShard decodes one shard's output.
func ParseShard(r io.Reader) (Header, map[int][][]string, ShardStats, error) {
	var (
		h       Header
		st      ShardStats
		byPoint = map[int][][]string{}
		point   = -1
		started bool
		ended   bool
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# sweep v1 "):
			if _, err := fmt.Sscanf(line, "# sweep v1 exp=%s shard=%d/%d quick=%t",
				&h.Exp, &h.Shard, &h.Shards, &h.Quick); err != nil {
				return h, nil, st, fmt.Errorf("sweep: bad header %q: %v", line, err)
			}
			started = true
		case !started:
			// Tolerate noise (e.g. a runtime warning) before the header.
			continue
		case strings.HasPrefix(line, "# point "):
			if _, err := fmt.Sscanf(line, "# point %d", &point); err != nil {
				return h, nil, st, fmt.Errorf("sweep: bad point marker %q: %v", line, err)
			}
			if _, dup := byPoint[point]; dup {
				return h, nil, st, fmt.Errorf("sweep: duplicate point %d in shard %d/%d", point, h.Shard, h.Shards)
			}
			byPoint[point] = nil
		case strings.HasPrefix(line, "# stats "):
			if _, err := fmt.Sscanf(line, "# stats points=%d rows=%d wall_ns=%d allocs=%d bytes=%d events=%d",
				&st.Points, &st.Rows, &st.WallNs, &st.Allocs, &st.Bytes, &st.Events); err != nil {
				return h, nil, st, fmt.Errorf("sweep: bad stats line %q: %v", line, err)
			}
			st.Shard = h.Shard
		case strings.HasPrefix(line, "# metric "):
			rest := line[len("# metric "):]
			i := strings.LastIndexByte(rest, ' ')
			if i <= 0 {
				return h, nil, st, fmt.Errorf("sweep: bad metric line %q", line)
			}
			v, err := strconv.ParseUint(rest[i+1:], 10, 64)
			if err != nil {
				return h, nil, st, fmt.Errorf("sweep: bad metric line %q: %v", line, err)
			}
			if st.Metrics == nil {
				st.Metrics = map[string]uint64{}
			}
			st.Metrics[rest[:i]] = v
		case line == "# end":
			ended = true
		case strings.HasPrefix(line, "#"):
			// Unknown framing from a newer writer: ignore.
		default:
			if point < 0 {
				return h, nil, st, fmt.Errorf("sweep: row %q before any point marker", line)
			}
			byPoint[point] = append(byPoint[point], strings.Split(line, ","))
		}
	}
	if err := sc.Err(); err != nil {
		return h, nil, st, err
	}
	if !started {
		return h, nil, st, fmt.Errorf("sweep: no shard header found")
	}
	if !ended {
		return h, nil, st, fmt.Errorf("sweep: truncated shard output (missing # end)")
	}
	rows := 0
	for _, g := range byPoint {
		rows += len(g)
	}
	if len(byPoint) != st.Points || rows != st.Rows {
		return h, nil, st, fmt.Errorf("sweep: shard %d/%d integrity: got %d points/%d rows, trailer says %d/%d",
			h.Shard, h.Shards, len(byPoint), rows, st.Points, st.Rows)
	}
	return h, byPoint, st, nil
}

// Merge folds per-shard point maps into the experiment's table skeleton,
// appending every point's rows in point order. Every point in [0, n) must
// be present exactly once across the shards.
func Merge(skeleton *stats.Table, n int, shards []map[int][][]string) (*stats.Table, error) {
	merged := make(map[int][][]string, n)
	for _, m := range shards {
		for p, rows := range m {
			if p < 0 || p >= n {
				return nil, fmt.Errorf("sweep: merge: point %d outside grid of %d", p, n)
			}
			if _, dup := merged[p]; dup {
				return nil, fmt.Errorf("sweep: merge: point %d delivered by two shards", p)
			}
			merged[p] = rows
		}
	}
	if len(merged) != n {
		return nil, fmt.Errorf("sweep: merge: %d of %d points delivered", len(merged), n)
	}
	for i := 0; i < n; i++ {
		skeleton.AddRows(merged[i])
	}
	return skeleton, nil
}
