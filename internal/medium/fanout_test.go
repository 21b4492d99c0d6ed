package medium

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/units"
)

// This file is the transmit-level differential wall: whichever path serves
// a transmission — a fan-out row, the row/mobile merge, the grid walk or
// the all-radios walk — the arrivals it schedules must equal, bit for bit
// and in order, what model.RxPower over every radio says they should be.

// wantArrival is one scheduled arrival as the kernel and the receiver see
// it.
type wantArrival struct {
	rx             int
	power, powerMW uint64 // float bits
	delay          sim.Duration
}

// referenceArrivals recomputes tx's fan-out at the current instant from
// first principles: every other radio, in ascending id, through the
// composite model and the power filter.
func referenceArrivals(m *Medium, tx *Radio) []wantArrival {
	now := m.kernel.Now()
	txPos := tx.mobility.PositionAt(now)
	var want []wantArrival
	for _, rx := range m.radios {
		if rx == tx {
			continue
		}
		rxPos := rx.mobility.PositionAt(now)
		power := m.model.RxPowerFrom(tx.txPower, m.model.RefLoss(txPos), txPos, rxPos, linkID(tx, rx), now)
		if float64(power) < float64(rx.noiseFloor)-detectionMarginDB {
			continue
		}
		want = append(want, wantArrival{rx: rx.id, power: math.Float64bits(float64(power)),
			powerMW: math.Float64bits(linearOrZero(power)),
			delay:   sim.Duration(txPos.Distance(rxPos) / units.SpeedOfLight * float64(sim.Second))})
	}
	// Leading edges run in delay order; equal delays keep schedule order,
	// which must be ascending id.
	slices.SortStableFunc(want, func(a, b wantArrival) int { return int(a.delay - b.delay) })
	return want
}

// transmitAndCompare sends one frame from tx, watches the leading-edge
// events the kernel runs, reads each arrival's power off its receiver, and
// compares the sequence with the reference.
func transmitAndCompare(t *testing.T, k *sim.Kernel, m *Medium, tx *Radio, what string) {
	t.Helper()
	var want, got []wantArrival
	var start sim.Time
	k.OnEvent = func(at sim.Time, name string) {
		if id, ok := strings.CutPrefix(name, "rx-start:r"); ok {
			rx, err := strconv.Atoi(id)
			if err != nil {
				t.Fatalf("leading edge at a radio the wall did not name: %q", name)
			}
			got = append(got, wantArrival{rx: rx, delay: at.Sub(start)})
		}
	}
	k.Schedule(0, "tx", func() {
		start = k.Now()
		want = referenceArrivals(m, tx)
		cf, _ := m.model.Fast.(*countingFading)
		cf.count(true)
		tx.Transmit(dataFrame(200), 0)
		cf.count(false)
	})
	// Every leading edge (delays are microseconds) and no trailing edge
	// (airtime is over a millisecond) has run: each receiver holds exactly
	// this transmission in flight.
	k.RunFor(100 * sim.Microsecond)
	k.OnEvent = nil
	for i := range got {
		in := m.radios[got[i].rx].inFlight
		if len(in) != 1 || in[0].t.tx != tx {
			t.Fatalf("%s: radio %d holds %d arrivals in flight, want tx %d's alone", what, got[i].rx, len(in), tx.id)
		}
		got[i].power = math.Float64bits(float64(in[0].power))
		got[i].powerMW = math.Float64bits(in[0].powerMW)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: tx %d at %v scheduled\n  %v\nreference says\n  %v", what, tx.id, start, got, want)
	}
	k.Run()
}

// countingFading counts the fast-fading gains Transmit itself draws (on is
// set around it, so the reference's own draws do not count). Before the
// fading memo a transmission drew one gain per other radio;
// what a static transmitter draws less than that, its row remembered.
type countingFading struct {
	spectrum.Fading
	on    bool
	draws int
}

func (c *countingFading) Gain(link uint64, t sim.Time) units.DB {
	if c.on {
		c.draws++
	}
	return c.Fading.Gain(link, t)
}

// count switches counting on or off; a nil counter (no fast fading) ignores it.
func (c *countingFading) count(on bool) {
	if c != nil {
		c.on = on
	}
}

// countFast wraps the model's fast-fading process in a counter; nil when
// the channel has none.
func countFast(model *spectrum.Model) *countingFading {
	if _, none := model.Fast.(spectrum.NoFading); none {
		return nil
	}
	cf := &countingFading{Fading: model.Fast}
	model.Fast = cf
	return cf
}

// reachedFor counts the radios a transmission from tx reaches for: all
// others, and the mobile ones among them.
func reachedFor(m *Medium, tx *Radio) (all, mobile int) {
	for _, rx := range m.radios {
		if rx != tx {
			all++
			if !rx.static {
				mobile++
			}
		}
	}
	return all, mobile
}

// memoTally compares what one transmission drew with what it reached for.
type memoTally struct{ hits, misses int }

// transmit is transmitAndCompare with, on a fast-fading channel (cf != nil),
// the draws checked: a static transmitter may draw less than one gain per
// receiver (a repeat inside a block named by repeat draws for its mobile
// receivers only), a mobile one computes every link per transmission.
func (c *memoTally) transmit(t *testing.T, k *sim.Kernel, m *Medium, cf *countingFading, tx *Radio, repeat bool, what string) {
	t.Helper()
	if cf == nil {
		transmitAndCompare(t, k, m, tx, what)
		return
	}
	before := cf.draws
	all, mobile := reachedFor(m, tx)
	transmitAndCompare(t, k, m, tx, what)
	drew := cf.draws - before
	switch {
	case !tx.static && drew != all:
		t.Fatalf("%s: mobile tx %d drew %d gains for %d receivers: mobile links are computed per transmission", what, tx.id, drew, all)
	case drew > all || drew < mobile:
		t.Fatalf("%s: tx %d drew %d gains for %d receivers, %d of them mobile", what, tx.id, drew, all, mobile)
	case repeat && drew != mobile:
		t.Fatalf("%s: tx %d drew %d gains repeating inside a block, want one per mobile receiver (%d)", what, tx.id, drew, mobile)
	}
	if tx.static {
		c.hits += all - drew
		c.misses += drew - mobile
	}
}

// wallTopology interleaves static and mobile ids on a 30 m grid, with
// transmit powers low enough that the power filter (and, where it is live,
// range pruning) drops part of every fan-out.
func wallTopology(m *Medium, n int) {
	for i, p := range geom.Grid(n, 30, geom.Pt(0, 0)) {
		m.AddRadio(wallRadio(i, p))
	}
}

func wallRadio(i int, p geom.Point) RadioConfig {
	var mob geom.Mobility = geom.Static{P: p}
	switch i % 5 {
	case 1:
		mob = geom.OrbitMobility{Centre: p, Radius: 25, Period: sim.Duration(2+i%3) * sim.Second}
	case 3:
		mob = geom.Linear{Start: p, Velocity: geom.Vector{X: float64(i%7) - 3, Y: float64(i%4) - 2}}
	}
	return RadioConfig{
		Name: fmt.Sprintf("r%d", i), Mode: phy.Mode80211b(), Mobility: mob,
		TxPower: units.DBm(-22 + 6*float64(i%3)),
	}
}

func TestTransmitDifferentialAllRadios(t *testing.T) {
	free := spectrum.FreeSpace{Freq: 2412 * units.MHz}
	const coherence = 10 * sim.Millisecond
	channels := []struct {
		name  string
		model func(src *rng.Source) *spectrum.Model
		grid  bool
	}{
		{"free-space", func(*rng.Source) *spectrum.Model { return spectrum.NewModel(free, nil, nil) }, true},
		{"log-distance", func(*rng.Source) *spectrum.Model {
			return spectrum.NewModel(spectrum.NewLogDistance(2412*units.MHz, 3.0), nil, nil)
		}, true},
		{"shadowed", func(src *rng.Source) *spectrum.Model {
			return spectrum.NewModel(free, spectrum.NewShadowing(src.Split("shadow"), 4), nil)
		}, false},
		{"shadowed+rayleigh", func(src *rng.Source) *spectrum.Model {
			return spectrum.NewModel(free, spectrum.NewShadowing(src.Split("shadow"), 4),
				spectrum.NewRayleigh(src.Split("fast"), coherence))
		}, false},
		{"shadowed+rician", func(src *rng.Source) *spectrum.Model {
			return spectrum.NewModel(free, spectrum.NewShadowing(src.Split("shadow"), 4),
				spectrum.NewRician(src.Split("fast"), 4, coherence))
		}, false},
	}
	const steps = 40
	for _, ch := range channels {
		t.Run(ch.name, func(t *testing.T) {
			k := sim.NewKernel()
			src := rng.New(31)
			model := ch.model(src)
			cf := countFast(model)
			m := New(k, model, src)
			wallTopology(m, 25)
			if m.sp.enabled != ch.grid {
				t.Fatalf("range pruning enabled = %v, want %v", m.sp.enabled, ch.grid)
			}
			delivered, filtered := uint64(0), 0
			var memo memoTally
			for step := 0; step < steps; step++ {
				what := "steady state"
				switch step {
				case 5:
					what = "after AddRadio"
					m.AddRadio(wallRadio(25, geom.Pt(40, 70)))
					m.AddRadio(wallRadio(26, geom.Pt(70, 40)))
				case 10:
					what = "after static→mobile"
					m.radios[0].SetMobility(geom.Linear{Start: geom.Pt(0, 0), Velocity: geom.Vector{X: 2, Y: 1}, T0: k.Now()})
				case 15:
					what = "after mobile→static"
					m.radios[0].SetMobility(geom.Static{P: geom.Pt(95, 35)})
					m.radios[1].SetMobility(geom.Static{P: geom.Pt(20, 20)})
				case 25:
					what = "after three radios moved 5 km away"
					for _, id := range []int{2, 6, 7} {
						m.radios[id].SetMobility(geom.Static{P: geom.Pt(float64(5000+id), 5000)})
					}
				case 30:
					what = "after radios came back"
					m.radios[2].SetMobility(geom.Static{P: geom.Pt(50, 10)})
					m.radios[6].SetMobility(geom.Linear{Start: geom.Pt(10, 50), Velocity: geom.Vector{X: 1}, T0: k.Now()})
					m.radios[7].SetMobility(geom.Static{P: geom.Pt(65, 35)})
				}
				what = fmt.Sprintf("step %d (%s)", step, what)
				for _, tx := range m.radios {
					before := m.FanoutDelivered
					memo.transmit(t, k, m, cf, tx, false, what)
					delivered += m.FanoutDelivered - before
					filtered += len(m.radios) - 1 - int(m.FanoutDelivered-before)
				}
				// A round of ~2 ms frames crosses five coherence blocks and
				// never repeats a transmitter inside one. So, on fading
				// channels, two static transmitters then alternate inside a
				// single block: the second frame of each finds every static
				// link of its row already drawn.
				for i := 0; cf != nil && i < 4; i++ {
					if i == 0 {
						k.RunFor(coherence - sim.Duration(k.Now())%coherence)
					}
					memo.transmit(t, k, m, cf, m.radios[4+5*(i%2)], i >= 2, what+", inside one block")
					if i == 3 && model.Fast.Block(k.Now()) != model.Fast.Block(k.Now().Add(-8*sim.Millisecond)) {
						t.Fatalf("%s: four frames did not fit one coherence block", what)
					}
				}
				k.RunFor(7 * sim.Millisecond) // movers move, fading blocks turn over
			}
			if delivered == 0 || filtered == 0 {
				t.Fatalf("%d arrivals delivered, %d filtered: the wall must see both", delivered, filtered)
			}
			if cf != nil && (memo.hits == 0 || memo.misses == 0) {
				t.Fatalf("fading memo: %d links remembered, %d drawn: the wall must see both", memo.hits, memo.misses)
			}
			if m.LinkCacheHits == 0 || m.LinkCacheMisses == 0 {
				t.Fatalf("row path not exercised: %d entries served, %d built", m.LinkCacheHits, m.LinkCacheMisses)
			}
		})
	}
}

// TestFadingMemoInvalidation changes, inside a single coherence block,
// everything a remembered link can depend on besides the block: radios
// join, a radio in the middle of every row starts moving and settles
// elsewhere (rows are rebuilt; entries shift). After each, every
// radio's arrivals must be those of the per-transmission computation.
func TestFadingMemoInvalidation(t *testing.T) {
	k := sim.NewKernel()
	src := rng.New(33)
	model := spectrum.NewModel(spectrum.FreeSpace{Freq: 2412 * units.MHz},
		spectrum.NewShadowing(src.Split("shadow"), 4), spectrum.NewRician(src.Split("fast"), 4, sim.Second))
	cf := countFast(model)
	m := New(k, model, src)
	wallTopology(m, 25)
	var memo memoTally
	round := func(what string) {
		t.Helper()
		for _, tx := range m.radios {
			memo.transmit(t, k, m, cf, tx, false, what)
		}
	}
	steps := []struct {
		what   string
		change func()
	}{
		{"first draw", func() {}},
		{"after AddRadio", func() {
			m.AddRadio(wallRadio(25, geom.Pt(40, 70)))
			m.AddRadio(wallRadio(26, geom.Pt(70, 40)))
		}},
		{"after static→mobile", func() {
			m.radios[10].SetMobility(geom.Linear{Start: geom.Pt(0, 60), Velocity: geom.Vector{X: 3, Y: -1}, T0: k.Now()})
		}},
		{"after mobile→static", func() { m.radios[10].SetMobility(geom.Static{P: geom.Pt(95, 35)}) }},
	}
	for _, s := range steps {
		s.change()
		round(s.what)
		// Whatever the change voided has been drawn again by now.
		hits := memo.hits
		if round(s.what + ", again"); memo.hits == hits {
			t.Fatalf("%s: a second round served no link from the memo", s.what)
		}
	}
	if model.Fast.Block(k.Now()) != 0 {
		t.Fatalf("the run left the first coherence block at %v", k.Now())
	}
}

// --- edge cursors ----------------------------------------------------------

// edgeRadio places a quiet static radio at (x, 0), strong enough to be
// heard a kilometre away.
func edgeRadio(m *Medium, name string, x float64, l Listener) *Radio {
	return m.AddRadio(RadioConfig{
		Name: name, Mode: phy.Mode80211b(),
		Mobility: geom.Static{P: geom.Pt(x, 0)}, TxPower: 30, Listener: l,
	})
}

// TestEdgeCursorOrder pins what the two cursors deliver, edge by edge and
// against other events on the same instants, to what per-receiver events
// scheduled in ascending receiver id at transmit time would deliver: at
// each instant, events scheduled before the transmission, then that
// instant's edges in receiver-id order, then events scheduled after it. The
// row is static and its delay order is not its id order, so the row's
// precomputed edge order is in use exactly until a mobile receiver is merged
// in; with every receiver beside the transmitter every edge is due at once.
func TestEdgeCursorOrder(t *testing.T) {
	k, m := testbed(21)
	tx := edgeRadio(m, "r0", 0, nil)
	for i, x := range []float64{300, 30, 150, 30, 600} { // r2 and r4 tie
		edgeRadio(m, fmt.Sprintf("r%d", i+1), x, nil)
	}
	cases := []struct {
		what    string
		prepare func()
		rowUsed bool
	}{
		{"whole row", func() {}, true},
		{"mobile receiver merged in", func() { m.radios[3].SetMobility(geom.Linear{Start: geom.Pt(150, 0)}) }, false},
		{"co-located receivers", func() {
			for _, rx := range m.radios[1:] {
				rx.SetMobility(geom.Static{P: geom.Pt(0, 0)})
			}
		}, true},
	}
	for _, c := range cases {
		c.prepare()
		var got, want []string
		rowUsed := false
		k.OnEvent = func(at sim.Time, name string) {
			if !strings.HasPrefix(name, "tx") {
				got = append(got, fmt.Sprintf("%d %s", at, name))
			}
		}
		k.Schedule(0, "tx", func() {
			start := k.Now()
			airtime := tx.mode.Airtime(0, len(dataFrame(200).AppendWire(nil)))
			type edge struct {
				at sim.Time
				rx int
			}
			var edges []edge
			for _, rx := range m.radios[1:] {
				at := start.Add(propDelay(rx.Position().X))
				edges = append(edges, edge{at, rx.id}, edge{at.Add(airtime), rx.id})
			}
			slices.SortStableFunc(edges, func(a, b edge) int { return cmp.Compare(a.at, b.at) })
			for i, e := range edges {
				if i == 0 || e.at != edges[i-1].at {
					k.ScheduleAt(e.at, "before", func() {})
				}
			}
			tx.Transmit(dataFrame(200), 0)
			for i, e := range edges {
				if i == 0 || e.at != edges[i-1].at {
					want = append(want, fmt.Sprintf("%d before", e.at))
				}
				kind := "rx-start"
				if e.at >= start.Add(airtime) {
					kind = "rx-end"
				}
				want = append(want, fmt.Sprintf("%d %s:r%d", e.at, kind, e.rx))
				if i == len(edges)-1 || e.at != edges[i+1].at {
					k.ScheduleAt(e.at, "after", func() {
						if in := m.radios[1].inFlight; len(in) == 1 {
							rowUsed = &in[0].t.order[0] == &tx.rowOrder[0]
						}
					})
					want = append(want, fmt.Sprintf("%d after", e.at))
				}
			}
		})
		k.Run()
		k.OnEvent = nil
		if !slices.Equal(got, want) {
			t.Fatalf("%s: kernel ran\n  %v\nper-receiver events would have run\n  %v", c.what, got, want)
		}
		if rowUsed != c.rowUsed {
			t.Fatalf("%s: transmission walked the row's edge order = %v, want %v", c.what, rowUsed, c.rowUsed)
		}
		if len(m.txPool) != 1 {
			t.Fatalf("%s: %d transmissions pooled after the run, want 1", c.what, len(m.txPool))
		}
	}
}

// TestSortEdges: from whatever permutation it starts — index order, the
// sorted order of slightly different delays, a shuffle — the insertion sort
// ends on the one (delay, index) order.
func TestSortEdges(t *testing.T) {
	src := rng.New(25)
	for round := 0; round < 2000; round++ {
		arrs := make([]arrival, src.Intn(40))
		want := make([]int32, len(arrs))
		for i := range arrs {
			arrs[i].delay = sim.Duration(src.Intn(12)) * 100 // ties are the rule
			want[i] = int32(i)
		}
		byEdge := func(a, b int32) int {
			return cmp.Or(cmp.Compare(arrs[a].delay, arrs[b].delay), cmp.Compare(a, b))
		}
		slices.SortFunc(want, byEdge)
		got := slices.Clone(want)
		switch round % 3 {
		case 0:
			slices.Sort(got)
		case 1: // the order of the transmission before: a few receivers have moved since
			for range min(3, len(arrs)) {
				arrs[src.Intn(len(arrs))].delay = sim.Duration(src.Intn(12)) * 100
			}
			slices.SortFunc(want, byEdge)
		case 2:
			for i := len(got) - 1; i > 0; i-- {
				j := src.Intn(i + 1)
				got[i], got[j] = got[j], got[i]
			}
		}
		if sortEdges(got, arrs); !slices.Equal(got, want) {
			t.Fatalf("round %d: sorted to %v, want %v", round, got, want)
		}
	}
}

// walkWorld is one side of TestEdgeCursorWalk: a kernel, what a transmission
// is on it, and the script's reactions to receiver edges by event name. On
// the medium a reaction runs in the CCA upcall of that edge, i.e. in the
// middle of a cursor's walk; on the reference in the edge's own event.
type walkWorld struct {
	k        *sim.Kernel
	transmit func(from int)
	moveAt   func(id int, x float64) // make radio id mobile, standing at (x, 0)
	act      map[string]func(*walkWorld)
	timers   map[string]sim.Timer
	log      []string
}

func (w *walkWorld) upcall(edge string) {
	if f := w.act[edge]; f != nil {
		f(w)
	}
}

// mark records what a run left behind.
func (w *walkWorld) mark() {
	w.log = append(w.log, fmt.Sprintf("-- now %d, processed %d, stopped %v", w.k.Now(), w.k.Processed(), w.k.Stopped()))
}

func (w *walkWorld) timer(at sim.Time, name string) {
	w.timers[name] = w.k.ScheduleAt(at, name, func() {})
}

// walkListener turns a receiver's CCA edges into the script's reactions.
type walkListener struct {
	NopListener
	w    *walkWorld
	name string
}

func (l *walkListener) OnCCABusy() { l.w.upcall("rx-start:" + l.name) }
func (l *walkListener) OnCCAIdle() { l.w.upcall("rx-end:" + l.name) }

// TestEdgeCursorWalk plays scripts that cut into a cursor's walk on the
// medium and on the naive reference — a bare kernel on which every receiver
// edge is its own event, scheduled in ascending receiver id at transmit time
// — and requires the same OnEvent sequence, the same clock, Processed and
// Stopped after every run, and the same same-timestamp run statistics.
func TestEdgeCursorWalk(t *testing.T) {
	// Delays from r0: r1 and r3 100 ns, r2 500 ns, r4 1000 ns, r5 2001 ns.
	xs := []float64{0, 30, 150, 30, 300, 600}
	mode := phy.Mode80211b()
	airtime := mode.Airtime(0, len(dataFrame(200).AppendWire(nil)))
	const ns = sim.Time(sim.Nanosecond)
	send := func(from int) func(*walkWorld) {
		return func(w *walkWorld) { w.transmit(from) }
	}
	at := func(w *walkWorld, d sim.Time, name string, f func(*walkWorld)) {
		w.k.ScheduleAt(d, name, func() { f(w) })
	}
	cases := []struct {
		what string
		play func(w *walkWorld)
	}{
		{"uninterrupted", func(w *walkWorld) {
			at(w, 0, "tx", send(0))
		}},
		{"Stop from an upcall mid-walk", func(w *walkWorld) {
			w.act["rx-start:r2"] = func(w *walkWorld) { w.k.Stop() }
			w.act["rx-end:r3"] = func(w *walkWorld) { w.k.Stop() }
			at(w, 0, "tx", send(0))
			w.k.Run()
			w.mark()
			w.k.Run()
			w.mark()
		}},
		{"RunUntil deadlines between two edges", func(w *walkWorld) {
			at(w, 0, "tx", send(0))
			for _, deadline := range []sim.Time{50 * ns, 700 * ns, 700 * ns, 1000 * ns, sim.Time(airtime) + 100*ns, sim.Time(airtime) + 1500*ns} {
				w.k.RunUntil(deadline)
				w.mark()
			}
		}},
		{"cancelled timers keyed between two edges", func(w *walkWorld) {
			w.timer(300*ns, "ghost-lead")
			w.timer(sim.Time(airtime)+1500*ns, "ghost-trail")
			w.k.Cancel(w.timers["ghost-lead"])
			w.act["rx-end:r1"] = func(w *walkWorld) { w.k.Cancel(w.timers["ghost-trail"]) }
			at(w, 0, "tx", send(0))
		}},
		{"an upcall's Schedule(0) against the next edge", func(w *walkWorld) {
			// r3's edge shares r1's instant and runs before r1's timer; r2's
			// is later and runs after r3's.
			for _, edge := range []string{"rx-start:r1", "rx-start:r3", "rx-end:r1", "rx-end:r3", "rx-end:r5"} {
				w.act[edge] = func(w *walkWorld) { w.k.Schedule(0, "timer-of-"+edge, func() {}) }
			}
			at(w, 0, "tx", send(0))
		}},
		{"a second frame, in another order of its own, under the first's trailing cursor", func(w *walkWorld) {
			// Both frames merge mobile receivers into the row, so each
			// sorts its own order, the second — r1 now 1500 ns out —
			// starting from the first's while r2's and r5's trailing edges
			// of the first are still to come.
			w.moveAt(4, 300)
			at(w, 0, "tx", send(0))
			at(w, sim.Time(airtime)+150*ns, "tx", func(w *walkWorld) {
				w.moveAt(1, 450)
				w.transmit(0)
			})
		}},
		{"two transmissions whose cursors interleave", func(w *walkWorld) {
			at(w, 0, "tx", send(0))
			at(w, 300*ns, "tx", send(5)) // r5 has not heard r0 yet; their edges cross at r2 and r4
			at(w, sim.Time(airtime)+400*ns, "tx", send(2))
		}},
	}
	for _, c := range cases {
		worlds := [2]*walkWorld{}
		for i := range worlds {
			k := sim.NewKernel()
			w := &walkWorld{k: k, act: map[string]func(*walkWorld){}, timers: map[string]sim.Timer{}}
			k.OnEvent = func(at sim.Time, name string) { w.log = append(w.log, fmt.Sprintf("%d %s", at, name)) }
			var m *Medium
			if i == 0 {
				m = New(k, spectrum.NewModel(spectrum.FreeSpace{Freq: 2412 * units.MHz}, nil, nil), rng.New(24))
				for id, x := range xs {
					name := fmt.Sprintf("r%d", id)
					edgeRadio(m, name, x, &walkListener{w: w, name: name})
				}
				w.transmit = func(from int) { m.radios[from].Transmit(dataFrame(200), 0) }
				w.moveAt = func(id int, x float64) { m.radios[id].SetMobility(geom.Linear{Start: geom.Pt(x, 0)}) }
			} else {
				xs := slices.Clone(xs)
				w.moveAt = func(id int, x float64) { xs[id] = x }
				w.transmit = func(from int) {
					for id, x := range xs {
						if id == from {
							continue
						}
						name := fmt.Sprintf("r%d", id)
						start := k.Now().Add(propDelay(geom.Pt(xs[from], 0).Distance(geom.Pt(x, 0))))
						k.ScheduleAt(start, "rx-start:"+name, func() { w.upcall("rx-start:" + name) })
						k.ScheduleAt(start.Add(airtime), "rx-end:"+name, func() { w.upcall("rx-end:" + name) })
					}
					k.Schedule(airtime, fmt.Sprintf("tx-done:r%d", from), func() {})
				}
			}
			c.play(w)
			k.Run()
			w.mark()
			cohorts, events := k.CohortSizes()
			w.log = append(w.log, fmt.Sprint("-- same-timestamp runs ", cohorts, " over ", events))
			if m != nil {
				for _, r := range m.radios {
					if len(r.inFlight) != 0 || r.lock != nil {
						t.Errorf("%s: %s still holds an arrival after the run", c.what, r.name)
					}
				}
				if len(m.txPool) == 0 {
					t.Errorf("%s: no transmission came back to the pool", c.what)
				}
			}
			worlds[i] = w
		}
		got, want := worlds[0].log, worlds[1].log
		if len(want) < 2*(len(xs)-1) {
			t.Fatalf("%s: the reference ran only %v", c.what, want)
		}
		if !slices.Equal(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("%s: record %d: the medium ran %q, per-receiver events %q\nmedium    %v\nreference %v", c.what, i, got[i], want[i], got, want)
				}
			}
			t.Fatalf("%s: the medium logged %d records, per-receiver events %d", c.what, len(got), len(want))
		}
	}
}

// frameCheck is a listener that checks every delivered frame against the
// transmission it must have come from.
type frameCheck struct {
	NopListener
	t    *testing.T
	name string
	want map[int]RxInfo // by body length
	got  []int
}

func (c *frameCheck) OnRxFrame(f *frame.Frame, info RxInfo) {
	w, ok := c.want[len(f.Body)]
	if !ok || info.Rate != w.Rate || info.Airtime != w.Airtime {
		c.t.Errorf("%s: %d-byte frame delivered with rate %v airtime %v: another transmission's fields", c.name, len(f.Body), info.Rate, info.Airtime)
	}
	c.got = append(c.got, len(f.Body))
}

// TestTransmissionOutlivesItsEdges holds the lifetime rule: receivers point
// into their transmission's arrival slice, so the transmission stays out of
// the pool — through a receiver that dozes between its two edges and a
// transmitter already sending its next frame — until the trailing cursor
// has walked the last edge, and no later.
func TestTransmissionOutlivesItsEdges(t *testing.T) {
	k, m := testbed(22)
	tx := edgeRadio(m, "tx", 0, nil)
	checks := map[string]*frameCheck{}
	for _, c := range []struct {
		name string
		x    float64
	}{{"near", 10}, {"mid", 1500}, {"far", 3000}} {
		checks[c.name] = &frameCheck{t: t, name: c.name, want: map[int]RxInfo{}}
		edgeRadio(m, c.name, c.x, checks[c.name])
	}
	mid := m.radios[2]
	first, second := dataFrame(100), dataFrame(700)
	air := [2]sim.Duration{}
	for i, f := range []*frame.Frame{first, second} {
		rate := phy.RateIdx(3 * i)
		air[i] = tx.mode.Airtime(rate, len(f.AppendWire(nil)))
		for _, c := range checks {
			c.want[len(f.Body)] = RxInfo{Rate: rate, Airtime: air[i]}
		}
	}

	// At every event, whatever a radio still points at belongs to a
	// transmission that is on the air, and is that radio's own arrival.
	k.OnEvent = func(sim.Time, string) {
		for _, r := range m.radios {
			held := r.inFlight
			if r.lock != nil {
				held = append(held[:len(held):len(held)], r.lock)
			}
			for _, a := range held {
				if a.t.tx != tx || a.rx != r || slices.Contains(m.txPool, a.t) {
					t.Fatalf("%v: %s holds an arrival of a recycled transmission", k.Now(), r.name)
				}
			}
		}
	}
	for round := 0; round < 3; round++ {
		k.Schedule(0, "go", func() {
			tx.Transmit(first, 0)
			// mid dozes between its leading and trailing edge, losing the
			// first frame, and wakes before the second launches; the first
			// frame's trailing edge, still in flight at mid, and the second
			// frame's leading edge share an instant.
			k.Schedule(air[0]/2, "doze", mid.Sleep)
			k.Schedule(air[0]-sim.Microsecond, "wake", mid.Wake)
			// The first frame's trailing cursor is still walking (far is
			// 10 µs out) when its transmitter sends again.
			k.Schedule(air[0], "again", func() {
				if len(m.txPool) != 0 && round == 0 {
					t.Errorf("first transmission recycled before its last trailing edge")
				}
				tx.Transmit(second, 3)
			})
		})
		k.Run()
		if len(m.txPool) != 2 {
			t.Fatalf("round %d: %d transmissions pooled, want the 2 that overlapped", round, len(m.txPool))
		}
	}
	for name, want := range map[string][]int{"near": {100, 700}, "mid": {700}, "far": {100, 700}} {
		want = slices.Concat(want, want, want)
		if got := checks[name].got; !slices.Equal(got, want) {
			t.Errorf("%s decoded frames of %v bytes, want %v", name, got, want)
		}
	}
}

// TestHeapDepthIndependentOfFanout is the host-independent form of what
// the cursors buy: on a static single-channel grid under Poisson load the
// kernel heap holds two entries per transmission on the air plus each
// radio's own two timers, however many receivers a transmission reaches.
func TestHeapDepthIndependentOfFanout(t *testing.T) {
	const n = 100
	var fanout [2]float64
	for i, pitch := range []float64{10, 100} {
		k, m := testbed(23)
		src := rng.New(23)
		for j, p := range geom.Grid(n, pitch, geom.Pt(0, 0)) {
			r := m.AddRadio(RadioConfig{Name: fmt.Sprintf("r%d", j), Mode: phy.Mode80211b(),
				Mobility: geom.Static{P: p}, TxPower: -20})
			var send func()
			send = func() {
				if k.Now() > sim.Time(100*sim.Millisecond) {
					return
				}
				airtime := r.Transmit(dataFrame(200), 0)
				gap := sim.Duration(src.ExpFloat64() * float64(5*sim.Millisecond))
				k.Schedule(airtime+sim.Microsecond+gap, "send", send)
			}
			k.Schedule(sim.Duration(src.ExpFloat64()*float64(5*sim.Millisecond)), "send", send)
		}
		k.Run()
		// The pool grows only when every transmission it ever made is on
		// the air, so once drained its size is the peak number concurrent.
		peak := len(m.txPool)
		fanout[i] = float64(m.FanoutDelivered) / float64(m.Transmissions)
		if hw, limit := k.HeapHighWater(), 2*peak+2*n; hw > limit {
			t.Errorf("pitch %v m: heap high water %d with %d transmissions concurrent at peak and fan-out %.1f, want <= %d",
				pitch, hw, peak, fanout[i], limit)
		}
	}
	if fanout[0] < 5*fanout[1] {
		t.Fatalf("fan-out per transmission %.1f and %.1f: the two pitches must differ 5x", fanout[0], fanout[1])
	}
}
