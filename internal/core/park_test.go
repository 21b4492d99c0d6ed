package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/net80211"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// The end-to-end wall under the parked saturator: whole scenarios run twice,
// every saturator once waiting on its MAC queue and once offering every
// millisecond, and everything a reader can see must be equal at every run
// boundary, with the kernel having run fewer events by exactly the top-ups
// the parked sources settled.

// pollBacklog never reports a full queue, so a saturator on it runs every
// top-up: the polling reference.
type pollBacklog struct{}

func (pollBacklog) AwaitSpace(func()) bool { return false }
func (pollBacklog) Refuse(uint64)          { panic("pollBacklog: a polling saturator settled top-ups") }

// countedBacklog forwards to the MAC and sums what the sources settle, in
// total and per source kind.
type countedBacklog struct {
	*mac.DCF
	w    *parkWorld
	kind string
}

func (b countedBacklog) Refuse(n uint64) {
	b.w.settled += n
	b.w.settledBy[b.kind] += n
	b.DCF.Refuse(n)
}

type satMode int

const (
	satPolled  satMode = iota // every source polls
	satCounted                // every source parks on a counting backlog
	satPublic                 // Network.Saturate
)

// parkWorld is one build of a scenario and what its readers have seen.
type parkWorld struct {
	net       *Network
	mode      satMode
	settled   uint64
	settledBy map[string]uint64
	satEvents uint64
	sats      uint64
	kinds     map[string]bool // source kinds saturated
	states    []worldState

	// loser is a station watched for losing its association; lossFull
	// records whether its queue was full at that instant (nil: not yet).
	loser      *Node
	loserAssoc bool
	lossFull   *bool
}

func (w *parkWorld) saturate(src, dst *Node, size int) uint32 {
	w.sats++
	kind := "adhoc"
	switch {
	case src.STA != nil:
		kind = "sta"
	case src.AP != nil:
		kind = "ap"
	}
	w.kinds[kind] = true
	switch w.mode {
	case satPolled:
		return w.saturateOn(src, dst, size, pollBacklog{})
	case satCounted:
		return w.saturateOn(src, dst, size, countedBacklog{src.MAC, w, kind})
	}
	return w.net.Saturate(src, dst, size)
}

// saturateOn is Network.Saturate with the backlog chosen by the test.
func (w *parkWorld) saturateOn(src, dst *Node, size int, backlog traffic.Backlog) uint32 {
	n := w.net
	n.nextFlow++
	dstAddr := dst.Address()
	n.gens = append(n.gens, traffic.NewSaturator(n.kernel, n.nextFlow, size, func(p []byte) bool {
		return src.Send(dstAddr, p)
	}, backlog))
	return n.nextFlow
}

// worldState is everything the harness, the benchmark digest and the examples
// read after a run.
type worldState struct {
	Now    sim.Time
	MACs   []mac.Stats
	Radios []medium.RadioStats
	Queues []int
	Gens   [][2]uint64
	Flows  []traffic.FlowStats
}

func (w *parkWorld) snap() {
	s := worldState{Now: w.net.Kernel().Now()}
	for _, n := range w.net.Nodes() {
		s.MACs = append(s.MACs, n.MAC.Stats())
		s.Radios = append(s.Radios, n.Radio.Stats)
		s.Queues = append(s.Queues, n.MAC.QueueLen())
	}
	for i, g := range w.net.Generators() {
		s.Gens = append(s.Gens, [2]uint64{g.Offered, g.Refused})
		if fs := w.net.FlowStats(uint32(i + 1)); fs != nil {
			s.Flows = append(s.Flows, *fs)
		}
	}
	w.states = append(w.states, s)
}

func newParkWorld(cfg Config, mode satMode) *parkWorld {
	w := &parkWorld{net: NewNetwork(cfg), mode: mode, settledBy: map[string]uint64{}, kinds: map[string]bool{}}
	w.net.Kernel().OnEvent = func(_ sim.Time, name string) {
		if name == "traffic-sat" {
			w.satEvents++
		}
		if w.loser == nil {
			return
		}
		// The previous event ended the association if it is gone now.
		if assoc := w.loser.STA.Associated(); w.loserAssoc && !assoc && w.lossFull == nil {
			full := w.loser.MAC.QueueLen() == w.loser.MAC.QueueCap()
			w.lossFull = &full
		}
		w.loserAssoc = w.loser.STA.Associated()
	}
	return w
}

// parkScenario builds on w and runs it, calling w.snap at every boundary a
// reader could look: after Run, after a second Run, after StopTraffic, and
// after the drain that follows.
type parkScenario func(w *parkWorld)

func adhocStar(w *parkWorld) {
	net := w.net
	sink := net.AddAdhoc("sink", geom.Pt(0, 0))
	pts := geom.Circle(20, 5, geom.Pt(0, 0))
	var nodes []*Node
	for i, p := range pts {
		nodes = append(nodes, net.AddAdhoc(fmt.Sprintf("sta%d", i), p))
	}
	for _, s := range nodes[:19] {
		w.saturate(s, sink, 1000)
	}
	net.Run(150 * sim.Millisecond)
	w.snap()
	// Mid-scenario start, on the other sources' grid (150 ms) ...
	w.saturate(nodes[19], sink, 1000)
	net.Run(50*sim.Millisecond + 250*sim.Microsecond)
	w.snap()
	// ... and off it, a second source on an already saturated node.
	w.saturate(nodes[0], sink, 300)
	net.Run(100 * sim.Millisecond)
	w.snap()
	net.StopTraffic()
	w.snap()
	net.Run(60 * sim.Millisecond)
	w.snap()
}

func fadingPairs(w *parkWorld) {
	net := w.net
	for i := 0; i < 4; i++ {
		a := net.AddAdhoc(fmt.Sprintf("a%d", i), geom.Pt(float64(40*i), 0))
		b := net.AddAdhoc(fmt.Sprintf("b%d", i), geom.Pt(float64(40*i), 25))
		w.saturate(a, b, 1200)
		if i%2 == 0 {
			w.saturate(b, a, 400)
		}
	}
	net.Run(120 * sim.Millisecond)
	w.snap()
	net.Run(80*sim.Millisecond + 1)
	w.snap()
	net.StopTraffic()
	w.snap()
	net.Run(40 * sim.Millisecond)
	w.snap()
}

func mixedCell(w *parkWorld) {
	net := w.net
	ap := net.AddAP("ap", geom.Pt(0, 0), net80211.APConfig{SSID: "cell"})
	sta := net.AddStation("sta", geom.Pt(8, 0), net80211.STAConfig{SSID: "cell"})
	psta := net.AddStation("psta", geom.Pt(-8, 0), net80211.STAConfig{SSID: "cell", PowerSave: true})
	lone := net.AddAP("lone-ap", geom.Pt(0, -12), net80211.APConfig{SSID: "lone"})
	lsta := net.AddStation("lone-sta", geom.Pt(6, -12), net80211.STAConfig{SSID: "lone", BeaconMissLimit: 1})
	sink := net.AddAdhoc("sink", geom.Pt(0, 10))
	a := net.AddAdhocOpts("a", geom.Pt(6, 10), NodeOpts{QueueCap: 3})
	b := net.AddAdhoc("b", geom.Pt(-6, 10))
	w.saturate(a, sink, 800)
	// A second enqueuer on a saturated node: it takes freed slots between
	// the saturator's wake-up and its next top-up.
	net.CBR(a, sink, 200, 700*sim.Microsecond)
	net.Run(1 * sim.Second) // the stations associate
	w.snap()
	for _, s := range []*Node{sta, psta, lsta} {
		if !s.STA.Associated() {
			panic("mixedCell: " + s.Name + " did not associate")
		}
	}
	w.saturate(sta, ap, 1000)
	// To a dozing station: the PS buffer refuses with room in the AP's
	// queue (a poll), the AP's full queue refuses first (a park). Its
	// top-ups come before those of the AP's second source, which keeps the
	// queue full.
	w.saturate(ap, psta, 300)
	w.saturate(ap, sta, 600)
	lgen := len(net.Generators())
	w.saturate(lsta, lone, 1000)
	w.saturate(b, sink, 1500)
	net.Run(200 * sim.Millisecond)
	w.snap()
	// The lone AP falls silent: its station, parked on a full queue, loses
	// the association and polls once its queue has room.
	w.loser, w.loserAssoc = lsta, true
	lone.AP.Stop()
	net.Run(100*sim.Millisecond + 500*sim.Microsecond)
	w.snap()
	// Two saturators wait on one queue, half a millisecond apart: each
	// dequeue wakes both and the nearer grid instant takes the slot.
	w.saturate(a, sink, 400)
	net.Run(250 * sim.Millisecond)
	w.snap()
	net.StopTraffic()
	w.snap()
	net.Run(50 * sim.Millisecond)
	w.snap()
	// Both poll cases were reached: refusals with room in the queue.
	if ap.AP.Stats.PSDropped == 0 {
		panic("mixedCell: the AP's PS buffer never refused")
	}
	if net.Generators()[lgen].Refused <= lsta.MAC.Stats().QueueDrops {
		panic("mixedCell: the lone station was never refused while unassociated")
	}
}

func TestParkedEqualsPolled(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		run  parkScenario
	}{
		{"adhoc star", Config{Seed: 3}, adhocStar},
		{"802.11a rayleigh pairs", Config{Seed: 4, Mode: "802.11a", Fading: "rayleigh", RateAdapt: "minstrel"}, fadingPairs},
		{"mixed cell", Config{Seed: 5, QueueCap: 16}, mixedCell},
	} {
		t.Run(tc.name, func(t *testing.T) {
			worlds := map[satMode]*parkWorld{}
			for _, mode := range []satMode{satPolled, satCounted, satPublic} {
				w := newParkWorld(tc.cfg, mode)
				tc.run(w)
				worlds[mode] = w
			}
			polled, counted, public := worlds[satPolled], worlds[satCounted], worlds[satPublic]
			for i := range polled.states {
				for _, w := range []*parkWorld{counted, public} {
					if !reflect.DeepEqual(polled.states[i], w.states[i]) {
						t.Fatalf("boundary %d: parked world (mode %d) differs from polled:\n%s", i, w.mode, firstDiff(polled.states[i], w.states[i]))
					}
				}
			}
			// Events: the parked worlds ran every event the polled one ran
			// except top-ups. Before StopTraffic those are exactly the
			// settled ones; a source stopped while parked also skips the
			// empty top-up its polling twin still pops.
			skipped := polled.net.Kernel().Processed() - counted.net.Kernel().Processed()
			if skipped != polled.satEvents-counted.satEvents {
				t.Errorf("parked world ran %d fewer events but %d fewer top-ups", skipped, polled.satEvents-counted.satEvents)
			}
			if skipped < counted.settled || skipped > counted.settled+counted.sats {
				t.Errorf("parked world ran %d fewer events, settled %d top-ups (+ at most %d stopped sources)", skipped, counted.settled, counted.sats)
			}
			for kind := range counted.kinds {
				if counted.settledBy[kind] == 0 {
					t.Errorf("%s sources settled no top-up: they never parked", kind)
				}
			}
			if counted.loser != nil && (counted.lossFull == nil || !*counted.lossFull) {
				t.Errorf("the lone station did not lose its association with a full queue (lost: %v)", counted.lossFull != nil)
			}
			if counted.settled*4 < polled.satEvents {
				t.Errorf("settled %d of %d polled top-ups, under a quarter: sources are not staying parked", counted.settled, polled.satEvents)
			}
			if p, c := public.net.Kernel().Processed(), counted.net.Kernel().Processed(); p != c {
				t.Errorf("Network.Saturate world ran %d events, counted world %d: Saturate does not park every source", p, c)
			}
		})
	}
}

// TestParkedEventsExactBeforeStop: with no source stopped, the event counts
// differ by the settled top-ups and nothing else, at every run boundary.
func TestParkedEventsExactBeforeStop(t *testing.T) {
	build := func(mode satMode) *parkWorld {
		w := newParkWorld(Config{Seed: 9}, mode)
		sink := w.net.AddAdhoc("sink", geom.Pt(0, 0))
		for i, p := range geom.Circle(5, 5, geom.Pt(0, 0)) {
			w.saturate(w.net.AddAdhoc(fmt.Sprintf("sta%d", i), p), sink, 1500)
		}
		return w
	}
	polled, parked := build(satPolled), build(satCounted)
	for _, d := range []sim.Duration{sim.Millisecond, 99*sim.Millisecond + 999*sim.Microsecond, 1, 50 * sim.Millisecond} {
		polled.net.Run(d)
		parked.net.Run(d)
		if got := polled.net.Kernel().Processed() - parked.net.Kernel().Processed(); got != parked.settled {
			t.Fatalf("at %v: parked world ran %d fewer events, settled %d", parked.net.Kernel().Now(), got, parked.settled)
		}
		polled.snap()
		parked.snap()
		if i := len(polled.states) - 1; !reflect.DeepEqual(polled.states[i], parked.states[i]) {
			t.Fatalf("at %v:\n%s", parked.net.Kernel().Now(), firstDiff(polled.states[i], parked.states[i]))
		}
	}
	if parked.settled < 600 {
		t.Errorf("settled %d top-ups over 150 ms x 5 sources: sources are not staying parked", parked.settled)
	}
}

// firstDiff names the first field of two world states that differs, with the
// start of both values (a FlowStats prints its whole latency sample).
func firstDiff(a, b worldState) string {
	short := func(v any) string {
		s := fmt.Sprintf("%+v", v)
		if len(s) > 400 {
			s = s[:400] + " …"
		}
		return s
	}
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if reflect.DeepEqual(fa.Interface(), fb.Interface()) {
			continue
		}
		name := va.Type().Field(i).Name
		if fa.Kind() == reflect.Slice && fa.Len() == fb.Len() {
			for j := 0; j < fa.Len(); j++ {
				if !reflect.DeepEqual(fa.Index(j).Interface(), fb.Index(j).Interface()) {
					return fmt.Sprintf("%s[%d]:\n polled %s\n parked %s", name, j, short(fa.Index(j).Interface()), short(fb.Index(j).Interface()))
				}
			}
		}
		return fmt.Sprintf("%s:\n polled %s\n parked %s", name, short(fa.Interface()), short(fb.Interface()))
	}
	return "no difference"
}
