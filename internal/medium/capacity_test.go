package medium_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/medium"
	"repro/internal/sim"
)

// TestBufferCapacities pins, element for element, the buffers that are
// sized by the traffic rather than by the network: the transmit jobs every
// node's MAC has built and their bodies' summed capacity (mac.DCF.Storage:
// a job body holds a copy of what Enqueue accepted, and a data body stores
// only a payload's non-zero prefix, so a send path that stores the zero
// fill moves it), the arrival slots the medium's pooled transmissions asked
// for — each array must hold exactly slices.Grow's capacity for its largest
// request, whose size classes are the one thing here that varies with
// GOARCH — and the edge-order buffers, after fixed-seed runs of a 27×27
// city (bench's city-grid dense op), a saturated ring (TestSoakSteadyState's)
// and a 1 024-radio grid, two in three of them mobile. A buffer sized by
// capacity again — jobs built QueueCap()+1 deep up front, arrival arrays
// grown by doubling, an order buffer with room for every radio — moves a
// number here or fails the size check. On the mobile grid,
// where nearly every transmission sorts its own edge order, the order
// buffers must also total O(N × fan-out): an order buffer per radio and per
// pooled transmission with room for every radio would be O(N²).
func TestBufferCapacities(t *testing.T) {
	for _, c := range []struct {
		name             string
		build            func() *core.Network
		run              sim.Duration
		jobs, bodies     int // transmit jobs and their bodies' summed capacity
		arrivals, orders int
	}{
		{"27×27 city", func() *core.Network {
			r := rand.New(rand.NewSource(16))
			net := core.NewNetwork(core.Config{Seed: 16, TxPower: 2})
			nodes := make([]*core.Node, 729)
			for i, p := range geom.Grid(len(nodes), 15, geom.Pt(0, 0)) {
				nodes[i] = net.AddAdhoc(fmt.Sprintf("n%d", i), p.Add(jitter(r, 1.5)))
			}
			for i := 0; i+1 < len(nodes); i += 2 {
				net.Poisson(nodes[i], nodes[i+1], 200, 4)
			}
			return net
		}, sim.Second, 395, 25280, 86503, 0},
		{"saturated ring", func() *core.Network {
			net := core.NewNetwork(core.Config{Seed: 7, Mode: "802.11g"})
			nodes := make([]*core.Node, 8)
			ring := geom.Circle(len(nodes), 15, geom.Pt(0, 0))
			for i := range nodes {
				nodes[i] = net.AddAdhoc(fmt.Sprintf("sta%d", i), ring[i])
			}
			for i := range nodes {
				net.Saturate(nodes[i], nodes[(i+1)%len(nodes)], 1000)
			}
			return net
		}, 2 * sim.Second, 520, 33280, 56, 0},
		{"1024-radio mobile grid", func() *core.Network {
			net := core.NewNetwork(core.Config{Seed: 5, TxPower: 2})
			nodes := make([]*core.Node, 1024)
			for i, p := range geom.Grid(len(nodes), 15, geom.Pt(0, 0)) {
				nodes[i] = net.AddAdhoc(fmt.Sprintf("m%d", i), p)
				if i%3 != 0 { // two in three walk, so static rows merge mobile radios
					nodes[i].Radio.SetMobility(geom.Linear{Start: p, Velocity: geom.Vector{X: float64(1 - 2*(i%2))}})
				}
			}
			for i := 0; i+1 < len(nodes); i += 2 {
				net.Poisson(nodes[i], nodes[i+1], 200, 4)
			}
			return net
		}, sim.Second, 537, 34368, 132971, 380579},
	} {
		net := c.build()
		net.Run(c.run)
		jobs, bodies := 0, 0
		for _, n := range net.Nodes() {
			j, b := n.MAC.Storage()
			jobs, bodies = jobs+j, bodies+b
		}
		m := net.Medium()
		arrivals, offSize, orders, buffers := medium.Capacities(m)
		fanout := m.FanoutDelivered / m.Transmissions
		t.Logf("%s: %d transmit jobs holding %d B of bodies, %d arrival slots asked for, %d order slots in %d buffers; %d arrivals per transmission",
			c.name, jobs, bodies, arrivals, orders, buffers, fanout)
		if jobs != c.jobs || bodies != c.bodies || arrivals != c.arrivals || orders != c.orders {
			t.Errorf("%s: (transmit jobs, body bytes, arrival slots asked for, order slots) = (%d, %d, %d, %d), want (%d, %d, %d, %d)",
				c.name, jobs, bodies, arrivals, orders, c.jobs, c.bodies, c.arrivals, c.orders)
		}
		if offSize != 0 {
			t.Errorf("%s: %d arrival arrays hold other than slices.Grow's capacity for what was asked", c.name, offSize)
		}
		if uint64(orders) > 2*uint64(buffers)*fanout {
			t.Errorf("%s: %d order slots in %d buffers, over twice the mean fan-out of %d each", c.name, orders, buffers, fanout)
		}
	}
}
