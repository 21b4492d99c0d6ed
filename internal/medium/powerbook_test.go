package medium_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/medium"
	"repro/internal/sim"
)

// powerAudit is a test-only observer on Kernel.OnEvent. After every receiver
// edge it holds the edge's radio to ROADMAP item 1's first invariant: the
// running antenna power totalMW equals the sum of the in-flight arrivals'
// powerMW, summed in a fixed (ascending) order because swap-remove leaves
// inFlight in no particular one. It also replays the edge's own update —
// one arrival added, or one removed and the < 1e-18 → 0 clamp — bit for bit
// from the radio's book before the edge, and counts the clamps.
type powerAudit struct {
	t      *testing.T
	byEdge map[string]*medium.Radio
	books  map[*medium.Radio]*book
	last   *medium.Radio // the radio whose edge ran last, if it was an edge
	spare  []float64

	edges, clamps  int     // clamps: removals that left a residual other than 0 and were cleared
	residual       float64 // largest |residual| a clamp cleared
	worst, worstAt float64 // largest |totalMW − Σ| and the Σ it was seen at
	worstRel       float64 // largest |totalMW − Σ| / (largest power the radio has held)
}

type book struct {
	total float64
	in    []float64 // in-flight powers, ascending
	peak  float64   // largest in-flight power seen
}

func newPowerAudit(t *testing.T, m *medium.Medium) *powerAudit {
	p := &powerAudit{t: t, byEdge: map[string]*medium.Radio{}, books: map[*medium.Radio]*book{}}
	for _, r := range m.Radios() {
		p.byEdge["rx-start:"+r.Name()] = r
		p.byEdge["rx-end:"+r.Name()] = r
		p.books[r] = &book{}
	}
	return p
}

// onEvent is the OnEvent hook: the state an edge left is checked when the
// next event arrives (or by flush, after the run).
func (p *powerAudit) onEvent(_ sim.Time, name string) {
	p.flush()
	p.last = p.byEdge[name]
}

func (p *powerAudit) flush() {
	r := p.last
	if r == nil {
		return
	}
	p.last = nil
	p.edges++
	b := p.books[r]
	total, in := medium.PowerBook(r, p.spare[:0])
	slices.Sort(in)
	sum := 0.0
	for _, x := range in {
		sum += x
		b.peak = max(b.peak, x)
	}
	if d := math.Abs(total - sum); d > 0 {
		if d > p.worst {
			p.worst, p.worstAt = d, sum
		}
		p.worstRel = max(p.worstRel, d/b.peak)
	}

	var want float64
	switch len(in) - len(b.in) {
	case 0: // a stale arrival's edge changes nothing
		want = b.total
	case 1:
		want = b.total + extra(in, b.in)
	case -1:
		if want = b.total - extra(b.in, in); want < 1e-18 {
			if want != 0 {
				p.clamps++
				p.residual = max(p.residual, math.Abs(want))
			}
			want = 0
		}
	default:
		p.t.Fatalf("%s: one edge moved %d arrivals", r.Name(), len(in)-len(b.in))
	}
	if math.Float64bits(total) != math.Float64bits(want) {
		p.t.Fatalf("%s: totalMW %v after an edge, its own update from %v gives %v", r.Name(), total, b.total, want)
	}
	b.total, b.in, p.spare = total, in, b.in
}

// extra returns the one value of the sorted long that sorted short lacks.
func extra(long, short []float64) float64 {
	for i, x := range short {
		if long[i] != x {
			return long[i]
		}
	}
	return long[len(long)-1]
}

// TestTotalPowerMatchesInFlight runs the audit over TestSoakSteadyState's
// ring (eight saturated 802.11g stations, 200 virtual seconds) and over a
// 100-radio 802.11b grid under Poisson load. totalMW is a running +=/−=, so
// it drifts from the sum by rounding; the stated bound is 2⁻⁴⁴ of the
// largest power the radio has held.
func TestTotalPowerMatchesInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates 200 + 5 virtual seconds")
	}
	const bound = 0x1p-44
	for _, c := range []struct {
		name  string
		build func() *core.Network
		run   sim.Duration
	}{
		{"soak ring", func() *core.Network {
			net := core.NewNetwork(core.Config{Seed: 7, Mode: "802.11g"})
			const nSta = 8
			ring := geom.Circle(nSta, 15, geom.Pt(0, 0))
			nodes := make([]*core.Node, nSta)
			for i := range nodes {
				nodes[i] = net.AddAdhoc(fmt.Sprintf("sta%d", i), ring[i])
			}
			for i := range nodes {
				net.Saturate(nodes[i], nodes[(i+1)%nSta], 1000)
			}
			net.Sink().Bound()
			return net
		}, 200 * sim.Second},
		{"100-radio grid", func() *core.Network {
			net := core.NewNetwork(core.Config{Seed: 3, Mode: "802.11b"})
			nodes := make([]*core.Node, 100)
			for i := range nodes {
				nodes[i] = net.AddAdhoc(fmt.Sprintf("n%d", i), geom.Pt(float64(i%10)*40, float64(i/10)*40))
			}
			for i := 0; i < len(nodes); i += 3 {
				net.Poisson(nodes[i], nodes[(i+1)%len(nodes)], 500, 40)
			}
			return net
		}, 5 * sim.Second},
	} {
		net := c.build()
		p := newPowerAudit(t, net.Medium())
		net.Kernel().OnEvent = p.onEvent
		net.Run(c.run)
		p.flush()
		t.Logf("%s: %d edges audited over %d events; %d clamps cleared a residual, the largest %.3g mW; worst |totalMW − Σ| %.3g mW at Σ = %.3g mW, %.3g of the radio's largest power",
			c.name, p.edges, net.Kernel().Processed(), p.clamps, p.residual, p.worst, p.worstAt, p.worstRel)
		if p.edges == 0 {
			t.Fatalf("%s: no edge audited", c.name)
		}
		if p.worstRel > bound {
			t.Errorf("%s: totalMW drifted %.3g of the radio's largest power from the in-flight sum, bound %.3g", c.name, p.worstRel, bound)
		}
	}
}
