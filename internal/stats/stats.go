// Package stats provides the measurement toolkit shared by the simulator
// and the experiment harness: streaming moments (Welford), histograms with
// quantiles, Jain's fairness index, Student-t confidence intervals, rate
// meters and text/CSV result tables.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Welford accumulates streaming mean and variance.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the observation count.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the running mean (0 for empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the sample variance (n-1 denominator).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// tTable holds two-sided 95% Student-t critical values for small samples;
// beyond 30 degrees of freedom the normal value is used.
var tTable = []float64{
	0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
	2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
	2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
}

// CI95 returns the half-width of the 95% confidence interval of the mean.
func (w *Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	df := int(w.n - 1)
	t := 1.96
	if df < len(tTable) {
		t = tTable[df]
	}
	return t * w.StdDev() / math.Sqrt(float64(w.n))
}

// Histogram collects observations for quantile queries. It stores raw
// values (scenario scale makes this cheap) so quantiles are exact. The
// values go into chunks whose capacities double from firstChunk, so a value
// is never copied while the histogram grows and growth leaves no garbage;
// the first query after an Add gathers the chunks into one sorted run.
type Histogram struct {
	xs     []float64   // the first chunk; after a query, every value in order
	more   [][]float64 // later chunks, each twice the capacity of the one before
	sorted bool
}

// firstChunk is the capacity of a histogram's first chunk.
const firstChunk = 16

// Add records an observation.
func (h *Histogram) Add(x float64) {
	if h.xs == nil {
		h.xs = make([]float64, 0, firstChunk)
	}
	tail := &h.xs
	if k := len(h.more); k > 0 {
		tail = &h.more[k-1]
	}
	if len(*tail) == cap(*tail) {
		if h.more == nil {
			// Room for four chunks (496 values) before the list grows, so
			// a short flow pays one list allocation, not one per chunk.
			h.more = make([][]float64, 0, 4)
		}
		h.more = append(h.more, make([]float64, 0, 2*cap(*tail)))
		tail = &h.more[len(h.more)-1]
	}
	*tail = append(*tail, x)
	h.sorted = false
}

// N returns the number of observations.
func (h *Histogram) N() int {
	n := len(h.xs)
	for _, c := range h.more {
		n += len(c)
	}
	return n
}

// Quantile returns the q-quantile (q in [0,1]) with linear interpolation.
func (h *Histogram) Quantile(q float64) float64 {
	if len(h.more) > 0 {
		all := make([]float64, 0, h.N())
		all = append(all, h.xs...)
		for _, c := range h.more {
			all = append(all, c...)
		}
		h.xs, h.more = all, nil
	}
	if len(h.xs) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.xs)
		h.sorted = true
	}
	if q <= 0 {
		return h.xs[0]
	}
	if q >= 1 {
		return h.xs[len(h.xs)-1]
	}
	pos := q * float64(len(h.xs)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(h.xs) {
		return h.xs[len(h.xs)-1]
	}
	return h.xs[lo]*(1-frac) + h.xs[lo+1]*frac
}

// JainIndex computes Jain's fairness index: (Σx)² / (n·Σx²). It is 1 for
// perfect fairness and 1/n when one member takes everything.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1 // all zero: degenerate but "fair"
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// Table is a rendered experiment result: a titled grid of columns.
type Table struct {
	Title   string
	Note    string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row of pre-formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddRows appends pre-formatted rows in order. It is the merge primitive
// for distributed table assembly: a table skeleton plus per-point row
// groups appended in point order renders byte-identically to the table the
// sequential run would have produced (internal/sweep relies on this).
func (t *Table) AddRows(rows [][]string) {
	t.Rows = append(t.Rows, rows...)
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var out []byte
	out = append(out, t.Title...)
	out = append(out, '\n')
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				out = append(out, ' ', ' ')
			}
			out = append(out, fmt.Sprintf("%-*s", widths[min(i, len(widths)-1)], cell)...)
		}
		out = append(out, '\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i, w := range widths {
		b := make([]byte, w)
		for j := range b {
			b[j] = '-'
		}
		sep[i] = string(b)
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Note != "" {
		out = append(out, "note: "...)
		out = append(out, t.Note...)
		out = append(out, '\n')
	}
	return string(out)
}

// CSV renders the table as comma-separated values (no quoting needed for
// our numeric content; commas in cells are replaced).
func (t *Table) CSV() string {
	var out []byte
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				out = append(out, ',')
			}
			for _, r := range c {
				if r == ',' {
					r = ';'
				}
				out = append(out, string(r)...)
			}
		}
		out = append(out, '\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return string(out)
}

// F formats a float with the given precision, trimming to a compact cell.
func F(x float64, prec int) string {
	return fmt.Sprintf("%.*f", prec, x)
}

// Mbps formats a bits-per-second value as Mbit/s with two decimals.
func Mbps(bps float64) string {
	return fmt.Sprintf("%.2f", bps/1e6)
}
