// Package sweep is the data format of full-fidelity evaluation sweeps and
// the worker side of the engine: the evaluation of one point every worker
// performs, whatever its transport (EvalPoint), the shard wire format a
// worker answers a run request with (WriteShard, ParseShard), the merge of per-point rows into a table byte-identical to
// the sequential run (Merge), and the crash-safe checkpoint journal built
// from the same records. Which point runs where is decided elsewhere —
// internal/cluster is the engine.
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
//	# stats points=2 rows=2
//	# end
//
// The stats trailer is an integrity pair: ParseShard rejects a shard whose
// parsed points and rows disagree with it. Because rows carry the exact
// pre-rendered cells, the parent can rebuild the table skeleton locally
// (same binary, same grid) and append the rows in point order; Render and
// CSV output are then byte-identical to the sequential run. That property
// is pinned by TestMergeDeterminism.
package sweep

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/harness"
	"repro/internal/stats"
)

// Header identifies one shard's output.
type Header struct {
	Exp    string
	Shard  int
	Shards int
	Quick  bool
}

// ShardStats is the integrity pair of a shard's trailer: how many points
// and rows the writer encoded, checked by ParseShard against what it parsed.
type ShardStats struct {
	Points int
	Rows   int
}

// EvalPoint evaluates point p of e. It is the whole worker side of the
// engine on every transport: an in-process worker delivers the rows as they
// are, an agent encodes them with WriteShard. An out-of-grid point is
// rejected before anything runs.
func EvalPoint(e *harness.Experiment, quick bool, p int) ([][]string, error) {
	g := e.Grid(quick)
	if p < 0 || p >= g.N {
		return nil, fmt.Errorf("sweep: point %d outside grid of %d", p, g.N)
	}
	return g.Point(p), nil
}

// WriteShard encodes one shard's row groups in the wire format. Rows must
// round-trip through one CSV line each; a cell containing a comma or a line
// break ('\n', '\r'), a row that starts with '#' and a row of no cells
// cannot, and make WriteShard fail loudly rather than corrupt the merged
// table.
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
			if len(row) == 0 {
				return fmt.Errorf("sweep: a row of no cells of %s point %d cannot round-trip the wire format", h.Exp, p)
			}
			for i, cell := range row {
				if strings.ContainsAny(cell, ",\n\r") || i == 0 && strings.HasPrefix(cell, "#") {
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
	fmt.Fprintf(bw, "# stats points=%d rows=%d\n# end\n", st.Points, st.Rows)
	return bw.Flush()
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
			// Records written before the trailer shrank carry more fields on
			// this line; Sscanf stops after the pair.
			if _, err := fmt.Sscanf(line, "# stats points=%d rows=%d", &st.Points, &st.Rows); err != nil {
				return h, nil, st, fmt.Errorf("sweep: bad stats line %q: %v", line, err)
			}
		case line == "# end":
			ended = true
		case strings.HasPrefix(line, "#"):
			// Unknown framing from another version's writer: ignore.
		default:
			if point < 0 {
				return h, nil, st, fmt.Errorf("sweep: row %q before any point marker", line)
			}
			if strings.ContainsRune(line, '\r') {
				// Past the one ScanLines strips, WriteShard writes no '\r'.
				return h, nil, st, fmt.Errorf("sweep: row %q holds a carriage return", line)
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
