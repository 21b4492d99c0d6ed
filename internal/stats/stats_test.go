package stats

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if w.N() != 8 {
		t.Errorf("n = %d", w.N())
	}
	if math.Abs(w.Mean()-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", w.Mean())
	}
	// Sample variance of that set is 32/7.
	if math.Abs(w.Variance()-32.0/7) > 1e-12 {
		t.Errorf("variance = %v, want %v", w.Variance(), 32.0/7)
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.CI95() != 0 {
		t.Error("empty accumulator not zero")
	}
	w.Add(42)
	if w.Mean() != 42 || w.Variance() != 0 || w.CI95() != 0 {
		t.Error("single observation stats wrong")
	}
}

func TestWelfordMatchesNaive(t *testing.T) {
	if err := quick.Check(func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		var sum float64
		for _, x := range raw {
			w.Add(float64(x))
			sum += float64(x)
		}
		mean := sum / float64(len(raw))
		var ss float64
		for _, x := range raw {
			ss += (float64(x) - mean) * (float64(x) - mean)
		}
		naiveVar := ss / float64(len(raw)-1)
		return math.Abs(w.Mean()-mean) < 1e-6 && math.Abs(w.Variance()-naiveVar) < 1e-4*math.Max(1, naiveVar)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	ci := func(n int) float64 {
		var w Welford
		for i := 0; i < n; i++ {
			w.Add(float64(i % 10))
		}
		return w.CI95()
	}
	if !(ci(1000) < ci(100) && ci(100) < ci(10)) {
		t.Errorf("CI does not shrink: %v %v %v", ci(10), ci(100), ci(1000))
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Add(float64(i))
	}
	if q := h.Quantile(0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := h.Quantile(1); q != 100 {
		t.Errorf("q1 = %v", q)
	}
	if q := h.Quantile(0.5); math.Abs(q-50.5) > 1e-9 {
		t.Errorf("median = %v, want 50.5", q)
	}
	if q := h.Quantile(0.99); q < 99 || q > 100 {
		t.Errorf("p99 = %v", q)
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile not 0")
	}
}

func TestHistogramUnsortedInput(t *testing.T) {
	var h Histogram
	for _, x := range []float64{5, 1, 4, 2, 3} {
		h.Add(x)
	}
	if q := h.Quantile(0.5); q != 3 {
		t.Errorf("median = %v", q)
	}
	// Adding after a query re-sorts.
	h.Add(0)
	if q := h.Quantile(0); q != 0 {
		t.Errorf("q0 after re-add = %v", q)
	}
}

// refQuantile is Quantile over a plain sorted copy: the definition the
// chunked store must reproduce bit for bit.
func refQuantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	switch lo := int(pos); {
	case q <= 0:
		return s[0]
	case q >= 1 || lo+1 >= len(s):
		return s[len(s)-1]
	default:
		frac := pos - float64(lo)
		return s[lo]*(1-frac) + s[lo+1]*frac
	}
}

// TestHistogramMatchesSortedSlice: across chunk boundaries and with
// queries between adds, every quantile equals the one over a plain sorted
// slice of the same values.
func TestHistogramMatchesSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	qs := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1}
	for _, n := range []int{1, 15, 16, 17, 48, 49, 1000, 5000} {
		var h Histogram
		var xs []float64
		for i := 0; i < n; i++ {
			x := rng.ExpFloat64() * 1e-3
			h.Add(x)
			xs = append(xs, x)
			if rng.Intn(n) == 0 || i == n-1 {
				if h.N() != len(xs) {
					t.Fatalf("n=%d: N() = %d after %d adds", n, h.N(), len(xs))
				}
				for _, q := range qs {
					if got, want := h.Quantile(q), refQuantile(xs, q); got != want {
						t.Fatalf("n=%d after %d adds: Quantile(%v) = %v, want %v", n, len(xs), q, got, want)
					}
				}
			}
		}
	}
}

// TestHistogramChunksDouble: adds never move a stored value; each chunk
// has twice the capacity of the one before, from firstChunk.
func TestHistogramChunksDouble(t *testing.T) {
	var h Histogram
	h.Add(0)
	first := &h.xs[0]
	for i := 1; i < 1000; i++ {
		h.Add(float64(i))
	}
	if &h.xs[0] != first {
		t.Error("the first chunk moved while the histogram grew")
	}
	c := cap(h.xs)
	if c != firstChunk {
		t.Errorf("first chunk capacity %d, want %d", c, firstChunk)
	}
	for i, chunk := range h.more {
		if c *= 2; cap(chunk) != c {
			t.Errorf("chunk %d capacity %d, want %d", i+1, cap(chunk), c)
		}
	}
}

var histSink *Histogram
var sliceSink []float64

// TestHistogramAllocsAtMostAppend: recording n values and querying once
// allocates no more than appending them to a slice does.
func TestHistogramAllocsAtMostAppend(t *testing.T) {
	for _, n := range []int{1, 2, 16, 17, 100, 1000, 10000} {
		hist := testing.AllocsPerRun(5, func() {
			histSink = new(Histogram)
			for i := 0; i < n; i++ {
				histSink.Add(float64(n - i))
			}
			histSink.Quantile(0.5)
		})
		appended := testing.AllocsPerRun(5, func() {
			sliceSink = nil
			for i := 0; i < n; i++ {
				sliceSink = append(sliceSink, float64(n-i))
			}
			slices.Sort(sliceSink)
		}) + 1 // the histogram itself, which the slice does not need
		if hist > appended {
			t.Errorf("n=%d: %v allocations, append makes %v", n, hist, appended)
		}
	}
}

func TestJainIndex(t *testing.T) {
	if j := JainIndex([]float64{1, 1, 1, 1}); math.Abs(j-1) > 1e-12 {
		t.Errorf("equal shares: %v", j)
	}
	if j := JainIndex([]float64{1, 0, 0, 0}); math.Abs(j-0.25) > 1e-12 {
		t.Errorf("monopoly of 4: %v, want 0.25", j)
	}
	if j := JainIndex(nil); j != 0 {
		t.Errorf("empty: %v", j)
	}
	if j := JainIndex([]float64{0, 0}); j != 1 {
		t.Errorf("all-zero: %v", j)
	}
}

func TestJainIndexBounds(t *testing.T) {
	if err := quick.Check(func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, x := range raw {
			xs[i] = float64(x)
		}
		j := JainIndex(xs)
		return j >= 1/float64(len(xs))-1e-9 && j <= 1+1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("T1: demo", "n", "throughput")
	tb.AddRow("1", "5.12")
	tb.AddRow("10", "3.80")
	tb.Note = "numbers are Mbit/s"
	out := tb.Render()
	for _, want := range []string{"T1: demo", "n", "throughput", "5.12", "3.80", "note:"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title, header, sep, 2 rows, note
		t.Errorf("render has %d lines:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("x", "a", "b")
	tb.AddRow("1,5", "2")
	csv := tb.CSV()
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Errorf("csv header: %q", csv)
	}
	if !strings.Contains(csv, "1;5,2") {
		t.Errorf("comma escaping: %q", csv)
	}
}

func TestFormatters(t *testing.T) {
	if got := F(3.14159, 2); got != "3.14" {
		t.Errorf("F = %q", got)
	}
	if got := Mbps(5.5e6); got != "5.50" {
		t.Errorf("Mbps = %q", got)
	}
}
