// Package harness defines and runs the evaluation suite: one experiment per
// table/figure in README.md's experiment index. Each experiment builds its
// scenario through the core API, runs it, and renders a stats.Table whose
// rows are the series the corresponding figure plots. The suite is the
// canonical evaluation set for an 802.11 MAC/driver mechanism paper; each
// Experiment records its literature-predicted shape in Expect.
//
// # Parameter grids
//
// An experiment is described as a Grid: a table skeleton plus N independent
// scenario points. Point(i) must be self-contained and pure — it builds,
// runs and measures its own core.Network(s) from a seed derived only from
// the point parameters (sim.DeriveSeed is the canonical mixer for new
// experiments) — so any subset of points can be evaluated anywhere, in any
// order, and reassembled into a table byte-identical to the sequential run.
// That property is what the sweep engine (internal/cluster: one scheduler
// over in-process, subprocess and TCP workers) relies on; Grid.Run is the
// plain sequential loop every engine run is compared against, and the
// merge-determinism tests in internal/sweep pin the equivalence.
package harness

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// Experiment is one reproducible table/figure.
type Experiment struct {
	// ID is the experiment key: "T1", "F1" … "F13", "S1", "A1"….
	ID string
	// Title is the human-readable name.
	Title string
	// Expect describes the shape the literature predicts, as far as Check
	// checks it.
	Expect string
	// Grid describes the experiment's parameter grid; quick mode trades
	// points/runtime for speed (used by tests).
	Grid func(quick bool) *Grid
	// Check holds a finished table to Expect: it returns the clauses that
	// fail, each naming its row, or nothing when the claim holds. Clauses
	// pick rows by value, so they hold at both scales.
	Check func(*stats.Table) []string
}

// Run evaluates every point of the experiment's grid in point order and
// returns the finished table: the sequential reference.
func (e *Experiment) Run(quick bool) *stats.Table { return e.Grid(quick).Run() }

// Grid is an experiment decomposed into its parameter grid: a table
// skeleton (title, columns, note — no rows) and N independent scenario
// points. Point(i) returns the fully formatted table rows for point i
// (usually exactly one); it must not touch shared state, so points can be
// evaluated concurrently or in separate processes and merged in point
// order.
type Grid struct {
	Table *stats.Table
	N     int
	Point func(i int) [][]string
	// Cost optionally returns a relative cost hint for point i — how
	// expensive evaluating the point is compared to its siblings. The
	// canonical derivation is simulated duration × node count (the two
	// factors event volume scales with); experiments with skewed grids
	// override it so the sweep scheduler (internal/cluster work stealing)
	// can balance work instead of counts.
	// Nil (or a non-positive return) means uniform cost 1.
	Cost func(i int) float64
}

// PointCost returns the scheduling cost hint for point i: Cost(i) when the
// grid provides one and it is positive, else 1. Costs are relative weights,
// not wall-time predictions; only their ratios matter.
func (g *Grid) PointCost(i int) float64 {
	if g.Cost != nil {
		if c := g.Cost(i); c > 0 {
			return c
		}
	}
	return 1
}

// Costs materialises the per-point cost hints for all N points.
func (g *Grid) Costs() []float64 {
	out := make([]float64, g.N)
	for i := range out {
		out[i] = g.PointCost(i)
	}
	return out
}

// CostByNodes is the canonical cost-hint derivation for grids whose points
// differ in station count: simulated duration × (nodes+1), the +1 counting
// the sink/AP every scenario carries.
func CostByNodes(dur sim.Duration, nodes int) float64 {
	return float64(dur) * float64(nodes+1)
}

// single adapts the common one-row-per-point shape to Grid.Point.
func single(f func(i int) []string) func(i int) [][]string {
	return func(i int) [][]string { return [][]string{f(i)} }
}

// Run evaluates the points one after another and fills the table in point
// order.
func (g *Grid) Run() *stats.Table {
	for i := 0; i < g.N; i++ {
		g.Table.AddRows(g.Point(i))
	}
	return g.Table
}

// claim collects the failed clauses of one Check. A missing row, a missing
// cell or a cell that is not a number is a failed clause and reads as NaN
// (or ""), which every clause after it, written as what must hold, fails
// too.
type claim struct {
	t     *stats.Table
	fails []string
}

// holds adapts clauses over a claim to Experiment.Check.
func holds(clauses func(c *claim)) func(*stats.Table) []string {
	return func(t *stats.Table) []string {
		c := &claim{t: t}
		c.that(len(t.Rows) > 0, "no rows")
		clauses(c)
		return c.fails
	}
}

// that records a failed clause, formatted from format and args, unless ok.
func (c *claim) that(ok bool, format string, args ...any) {
	if !ok {
		c.fails = append(c.fails, fmt.Sprintf(format, args...))
	}
}

// row returns the row whose leading cells are keys.
func (c *claim) row(keys ...string) []string {
	for _, r := range c.t.Rows {
		if len(r) >= len(keys) && slices.Equal(r[:len(keys)], keys) {
			return r
		}
	}
	c.that(false, "no row %s", strings.Join(keys, " "))
	return nil
}

// ends returns the rows with the smallest and the largest first cell.
func (c *claim) ends() (lo, hi []string) {
	var lv, hv float64
	for _, r := range c.t.Rows {
		v := c.num(r, 0)
		if lo == nil || v < lv {
			lo, lv = r, v
		}
		if hi == nil || v > hv {
			hi, hv = r, v
		}
	}
	return lo, hi
}

// name is how a clause names row r: its first column and first cell.
func (c *claim) name(r []string) string {
	return c.t.Columns[0] + " = " + c.str(r, 0)
}

// str returns cell col of r.
func (c *claim) str(r []string, col int) string {
	if col < len(r) {
		return r[col]
	}
	if r != nil { // a nil row is already a failed clause
		c.that(false, "a row of %d cells has no column %d", len(r), col)
	}
	return ""
}

// num returns cell col of r as a number.
func (c *claim) num(r []string, col int) float64 {
	s := c.str(r, col)
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		if col < len(r) {
			c.that(false, "%q is not a number", s)
		}
		return math.NaN()
	}
	return v
}

// registry holds all experiments keyed by ID.
var registry = map[string]*Experiment{}

func register(e *Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("harness: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// ByID returns an experiment or nil.
func ByID(id string) *Experiment { return registry[id] }

// All returns the experiments in suite order: T1, F1..F13, E1..E3, S1, A1, A2.
func All() []*Experiment {
	out := make([]*Experiment, 0, len(registry))
	//wlan:allow-nondeterminism collection order is erased by the sort below
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return expKey(out[i].ID) < expKey(out[j].ID) })
	return out
}

// expKey orders T*, F*, E*, S*, A*, numerically within each class.
func expKey(id string) int {
	if len(id) < 2 {
		return 1 << 20
	}
	var base int
	switch id[0] {
	case 'T':
		base = 0
	case 'F':
		base = 100
	case 'E':
		base = 300
	case 'S':
		base = 1000
	case 'A':
		base = 2000
	default:
		base = 1 << 19
	}
	n := 0
	fmt.Sscanf(id[1:], "%d", &n)
	return base + n
}

// --- shared scenario builders -------------------------------------------------

// star builds n saturated adhoc senders on a tight circle around a sink and
// returns the network, the sink node and the flow IDs (one per sender).
func star(cfg core.Config, n, payload int) (*core.Network, *core.Node, []uint32) {
	net := core.NewNetwork(cfg)
	sink := net.AddAdhoc("sink", geom.Pt(0, 0))
	flows := make([]uint32, n)
	pts := geom.Circle(n, 3, geom.Pt(0, 0))
	for i := 0; i < n; i++ {
		s := net.AddAdhoc(fmt.Sprintf("sta%d", i), pts[i])
		flows[i] = net.Saturate(s, sink, payload)
	}
	return net, sink, flows
}

// sumThroughput adds up per-flow goodput.
func sumThroughput(net *core.Network, flows []uint32) float64 {
	var total float64
	for _, f := range flows {
		total += net.FlowThroughput(f)
	}
	return total
}

// flowTotals is what a network's generators sent and its sink received.
type flowTotals struct {
	sent, received uint64
	meanDelay      float64 // seconds: per-flow means weighted by frames received
}

// delivery returns received as a percentage of sent, 0 when nothing was sent.
func (t flowTotals) delivery() float64 {
	if t.sent == 0 {
		return 0
	}
	return 100 * float64(t.received) / float64(t.sent)
}

// totals sums every generator's Offered (offered set) or Sent(), and flows'
// sink statistics, handed in order to each when it is not nil.
func totals(net *core.Network, flows []uint32, offered bool, each func(*traffic.FlowStats)) flowTotals {
	var t flowTotals
	for _, g := range net.Generators() {
		if offered {
			t.sent += g.Offered
		} else {
			t.sent += g.Sent()
		}
	}
	var delaySum float64
	for _, id := range flows {
		if fs := net.FlowStats(id); fs != nil {
			t.received += fs.Received
			delaySum += fs.Latency.Mean() * float64(fs.Received)
			if each != nil {
				each(fs)
			}
		}
	}
	if t.received > 0 {
		t.meanDelay = delaySum / float64(t.received)
	}
	return t
}

// perFlowThroughput returns each flow's goodput.
func perFlowThroughput(net *core.Network, flows []uint32) []float64 {
	out := make([]float64, len(flows))
	for i, f := range flows {
		out[i] = net.FlowThroughput(f)
	}
	return out
}

// pick returns the quick or full variant.
func pick[T any](quick bool, q, full T) T {
	if quick {
		return q
	}
	return full
}

// runDur is a convenience for experiment run times.
func runDur(quick bool, q, full sim.Duration) sim.Duration {
	return pick(quick, q, full)
}
