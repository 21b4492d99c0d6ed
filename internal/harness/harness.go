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
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Experiment is one reproducible table/figure.
type Experiment struct {
	// ID is the experiment key: "T1", "F1" … "F13", "S1", "A1"….
	ID string
	// Title is the human-readable name.
	Title string
	// Expect describes the shape the literature predicts.
	Expect string
	// Grid describes the experiment's parameter grid; quick mode trades
	// points/runtime for speed (used by tests).
	Grid func(quick bool) *Grid
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
