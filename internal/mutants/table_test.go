// Package mutants is the repository's mutant list: the hand mutants that
// justify its walls, each an exact edit of one source file, and the tests
// that must fail under each.
//
// The untagged test checks that every edit still applies exactly once and
// that every recorded killer still exists, so a refactor that moves a
// mutant's target fails tier-1 at once. The whole matrix runs under a build
// tag, because it takes minutes (half an hour on two cores with a cold test
// cache, which the default 10-minute timeout does not cover):
//
//	go test -tags mutants -timeout 1h ./internal/mutants
//
// It applies each mutant with go test -overlay — no copy of the tree, no
// tool beyond the go command — runs the wall packages (every package but
// those in skipped) and fails unless the tests that fail are exactly the
// mutant's killers, or no test fails and the mutant is marked equivalent or
// missing with its reason. bench is left out: its suite tests rebuild the
// binaries with their own go build, which does not see the overlay.
// PERFORMANCE.md prints the verdict table rendered from the list
// (TestPerformanceTable holds the two equal).
package mutants

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mutant is one hand mutant: old, which must occur exactly once in file,
// replaced by new.
type mutant struct {
	name     string
	file     string // relative to the module root
	old, new string
	// kills are the top-level tests that fail, as package.Test, sorted.
	kills []string
	// equivalent says why no input can tell the mutant from the code;
	// missing names the wall no test provides yet (ROADMAP item 11).
	equivalent, missing string
}

// skipped are the packages whose tests the matrix does not run: bench (its
// suite tests build binaries with their own go build, which does not see
// the overlay), the sweep engine and its CLI (they compare one worker
// transport with another over the same model, so a mutant sits on both
// sides), the analyzers (they load the source with their own go list) and
// this package.
var skipped = []string{
	"repro/bench",
	"repro/cmd/experiments",
	"repro/internal/analysis",
	"repro/internal/cluster",
	"repro/internal/cluster/faultnet",
	"repro/internal/mutants",
	"repro/internal/sweep",
}

var mutants = []mutant{
	// sim: the heap, Advance and the running key.
	{name: "drainStep pops without its down(0)", file: "internal/sim/sim.go",
		old: "\t\tif n > 0 {\n\t\t\tk.down(0)\n\t\t}\n", new: "",
		kills: []string{"core.TestAdhocSaturationEndToEnd", "ether.TestSwitchOwnsPayload", "harness.TestGoldenTrace", "mac.TestPureAlohaThroughputShape", "medium.TestEdgeCursorOrder", "net80211.TestAIDsStayInRange", "repro.TestQuickRunAllocCeiling", "sim.TestCohortDrainProperty", "trace.TestTracerGoldens", "traffic.TestSaturatorParkEqualsPoll", "wlansim.TestGoodputOverMeasuredDuration", "wlansim.TestStdoutWriteErrorExits", "wlansim.TestTraceWriteErrorExits", "wlantrace.TestFilterSimTrace", "wlantrace.TestSummaryOfSimTrace"}},
	{name: "Advance compares against heap[1]", file: "internal/sim/sim.go",
		old: "if len(k.heap) > 0 && keyLess(k.heap[0], heapKey{at: at, seq: seq}) {", new: "if len(k.heap) > 1 && keyLess(k.heap[1], heapKey{at: at, seq: seq}) {",
		kills: []string{"core.TestCaptureMarginAloneEnablesCapture", "harness.TestGoldenTrace", "mac.TestPureAlohaThroughputShape", "medium.TestTransmitDifferentialAllRadios", "net80211.TestESSTracksRoam", "repro.TestQuickRunAllocCeiling", "sim.TestReservedSeqTrains", "wlansim.TestTraceWriteErrorExits", "wlantrace.TestSummaryOfSimTrace"}},
	{name: "reapCancelled without its re-heapify", file: "internal/sim/sim.go",
		old: "\tfor i := (len(live) - 2) >> 2; i >= 0; i-- {\n\t\tk.down(i)\n\t}\n", new: "",
		kills: []string{"core.TestParkedEqualsPolled", "harness.TestGoldenTrace", "medium.TestBufferCapacities", "repro.TestQuickRunAllocCeiling", "sim.FuzzKernelOps"}},
	{name: "Advance ignores the deadline", file: "internal/sim/sim.go",
		old: "if k.stopped || at > k.deadline || at < k.now", new: "if k.stopped || at < k.now",
		kills: []string{"medium.TestEdgeCursorWalk", "sim.FuzzKernelOps", "sim.TestReservedSeqTrains"}},
	{name: "Advance ignores stopped", file: "internal/sim/sim.go",
		old: "if k.stopped || at > k.deadline || at < k.now", new: "if at > k.deadline || at < k.now",
		kills: []string{"medium.TestEdgeCursorWalk", "sim.FuzzKernelOps", "sim.TestReservedSeqTrains"}},
	{name: "Advance does not look at the queue", file: "internal/sim/sim.go",
		old: "\tif len(k.heap) > 0 && keyLess(k.heap[0], heapKey{at: at, seq: seq}) {\n\t\treturn false\n\t}\n", new: "",
		kills: []string{"core.TestCaptureMarginAloneEnablesCapture", "harness.TestGoldenTrace", "mac.TestPureAlohaThroughputShape", "medium.TestTransmitDifferentialAllRadios", "net80211.TestESSTracksRoam", "repro.TestQuickRunAllocCeiling", "sim.TestReservedSeqTrains", "wlansim.TestTraceWriteErrorExits", "wlantrace.TestSummaryOfSimTrace"}},
	{name: "Advance does not move runSeq", file: "internal/sim/sim.go",
		old: "\tk.arrive(at, seq, name)\n\treturn true", new: "\tk.arrive(at, k.runSeq, name)\n\treturn true",
		kills: []string{"sim.FuzzKernelOps"}},
	{name: "Advance does not close the same-timestamp run", file: "internal/sim/sim.go",
		old: "\tk.arrive(at, seq, name)\n\treturn true", new: "\tk.now, k.runSeq = at, seq\n\tk.runLen++\n\tif k.OnEvent != nil {\n\t\tk.OnEvent(at, name)\n\t}\n\tk.processed++\n\treturn true",
		kills: []string{"medium.TestEdgeCursorWalk", "sim.FuzzKernelOps", "sim.TestReservedSeqTrains"}},
	{name: "Advance does not count Processed", file: "internal/sim/sim.go",
		old: "\tk.arrive(at, seq, name)\n\treturn true", new: "\tk.arrive(at, seq, name)\n\tk.processed--\n\treturn true",
		kills: []string{"harness.TestGoldenTrace", "medium.TestEdgeCursorWalk", "sim.FuzzKernelOps", "sim.TestReservedSeqTrains"}},
	{name: "Advance does not call OnEvent", file: "internal/sim/sim.go",
		old: "\tk.arrive(at, seq, name)\n\treturn true", new: "\thook := k.OnEvent\n\tk.OnEvent = nil\n\tk.arrive(at, seq, name)\n\tk.OnEvent = hook\n\treturn true",
		kills: []string{"medium.TestEdgeCursorOrder", "medium.TestEdgeCursorWalk", "medium.TestFadingMemoInvalidation", "medium.TestSimcheckQuickGrids", "medium.TestSimcheckWorkloads", "medium.TestTransmitDifferentialAllRadios", "sim.FuzzKernelOps", "sim.TestReservedSeqTrains"}},
	{name: "RunUntil leaves the running key at the last event", file: "internal/sim/sim.go",
		old: "k.now, k.runSeq = deadline, math.MaxUint64", new: "k.now = deadline",
		kills: []string{"core.TestParkedEqualsPolled", "sim.TestPassed", "traffic.FuzzSaturatorSchedule", "traffic.TestSaturatorParkEqualsPoll", "traffic.TestSaturatorParkScripted"}},

	// traffic and core: parked saturators.
	{name: "Settle counts the instant equal to now whatever its order", file: "internal/traffic/traffic.go",
		old: "if n > 0 && !g.k.Passed(g.last.Add(n*g.topUp), g.tick) {", new: "if n > 0 && false {",
		kills: []string{"traffic.FuzzSaturatorSchedule", "traffic.TestSaturatorParkEqualsPoll", "traffic.TestSaturatorParkScripted"}},
	{name: "Settle does not call Refuse(n)", file: "internal/traffic/traffic.go",
		old: "\tg.backlog.Refuse(uint64(n))\n", new: "",
		kills: []string{"core.TestParkedEqualsPolled", "core.TestParkedEventsExactBeforeStop", "traffic.FuzzSaturatorSchedule", "traffic.TestSaturatorBackpressure", "traffic.TestSaturatorParkEqualsPoll", "traffic.TestSaturatorParkScripted"}},
	{name: "Stop does not settle", file: "internal/traffic/traffic.go",
		old: "func (g *Generator) Stop() {\n\tg.Settle()\n", new: "func (g *Generator) Stop() {\n",
		kills: []string{"traffic.FuzzSaturatorSchedule", "traffic.TestSaturatorParkEqualsPoll", "traffic.TestSaturatorParkScripted"}},
	{name: "a top-up that was not refused parks", file: "internal/traffic/traffic.go",
		old: "if g.parked = refused && g.backlog.AwaitSpace(g.wakeFn); g.parked {", new: "if g.parked = g.backlog.AwaitSpace(g.wakeFn); g.parked {",
		missing: "AwaitSpace registers only on a full queue, so the edit parks differently only when one top-up's 512-packet burst fills the queue exactly; no wall configures a queue of 512 slots or more"},
	{name: "the wake-up is queued with ScheduleAt and a method value", file: "internal/traffic/traffic.go",
		old: "\t\tg.parked = false\n\t\tg.k.ScheduleArgSeq(g.last.Add(g.topUp), g.tick, \"traffic-sat\", runSaturateArg, g)", new: "\t\tg.parked = false\n\t\tg.k.ScheduleAt(g.last.Add(g.topUp), \"traffic-sat\", g.runSaturate)",
		kills: []string{"core.TestParkedEqualsPolled", "core.TestSoakSteadyState", "repro.TestQuickRunAllocCeiling", "traffic.FuzzSaturatorSchedule", "traffic.TestSaturatorParkEqualsPoll"}},
	{name: "Network.Run returns unsettled", file: "internal/core/core.go",
		old: "\tfor _, g := range n.gens {\n\t\tg.Settle()\n\t}\n", new: "",
		kills: []string{"core.TestParkedEqualsPolled", "core.TestParkedEventsExactBeforeStop"}},
	{name: "AwaitSpace calls only the first waiter", file: "internal/mac/dcf.go",
		old: "\t\tfor _, fn := range d.spaceWaiters { // a slot is free for whoever comes first\n\t\t\tfn()\n\t\t}\n", new: "\t\tif len(d.spaceWaiters) > 0 {\n\t\t\td.spaceWaiters[0]()\n\t\t}\n",
		kills: []string{"core.TestParkedEqualsPolled", "mac.TestAwaitSpaceWakesEveryWaiterAtEachDequeue"}},

	// mac: receive side, fragmentation and the item-12 timing mutants.
	{name: "the MAC delivers duplicates upward", file: "internal/mac/dcf.go",
		old: "\t\t\td.stats.RxDup++\n\t\t\treturn\n", new: "\t\t\td.stats.RxDup++\n\t\t\td.deliverUp(f, info)\n\t\t\treturn\n",
		kills: []string{"mac.TestDuplicateFiltering"}},
	{name: "makeJob: MoreFrag ignores the zero run", file: "internal/mac/dcf.go",
		old: "frag.MoreFrag = n < len(body)+zeros", new: "frag.MoreFrag = n < len(body)",
		kills: []string{"core.TestFragThresholdFloorDeliversWhole", "harness.TestF8FragmentationHelpsOnNoisyChannel", "mac.TestFragmentsOfZeroTail"}},
	{name: "makeJob: fragments only over the stored bytes", file: "internal/mac/dcf.go",
		old: "for i := 0; len(body)+zeros > 0; i++ {", new: "for i := 0; len(body) > 0; i++ {",
		kills: []string{"core.TestConfigVariants", "harness.TestF8FragmentationHelpsOnNoisyChannel", "mac.TestFragmentsOfZeroTail", "medium.TestSimcheckQuickGrids", "repro.TestQuickRunAllocCeiling"}},
	{name: "makeJob: the zero run is debited a whole fragment", file: "internal/mac/dcf.go",
		old: "body, zeros = body[stored:], zeros-frag.Zeros", new: "body, zeros = body[stored:], max(0, zeros-n)",
		kills: []string{"core.TestFragThresholdFloorDeliversWhole", "mac.TestFragmentsOfZeroTail"}},
	{name: "CWmin off by one", file: "internal/mac/mac.go",
		old: "c.CWmin = mode.CWmin\n", new: "c.CWmin = mode.CWmin + 1\n",
		kills: []string{"core.TestCaptureMarginAloneEnablesCapture", "harness.TestF13PriorityAccess", "harness.TestGoldenTrace", "medium.TestBufferCapacities", "trace.TestTracerGoldens"}},
	{name: "SIFS +1 µs", file: "internal/mac/dcf.go",
		old: "d.k.Schedule(d.mode.SIFS, d.nameSIFS, d.sifsFireFn)", new: "d.k.Schedule(d.mode.SIFS+sim.Microsecond, d.nameSIFS, d.sifsFireFn)",
		kills: []string{"harness.TestF13PriorityAccess", "harness.TestGoldenTrace", "mac.TestRTSCTSDataAckLadder", "mac.TestSIFSSeparationOfACK", "medium.TestBufferCapacities", "trace.TestTracerGoldens"}},
	{name: "the ACK is sent at the data rate", file: "internal/mac/dcf.go",
		old: "\tctrl := d.mode.ControlRate(info.Rate)\n\tackTime := d.mode.Airtime(ctrl, frame.ACKLen)\n", new: "\tctrl := info.Rate\n\tackTime := d.mode.Airtime(ctrl, frame.ACKLen)\n",
		kills: []string{"core.TestCaptureMarginAloneEnablesCapture", "harness.TestF13PriorityAccess", "harness.TestGoldenTrace", "medium.TestBufferCapacities", "trace.TestTracerGoldens"}},

	// net80211 and frame: the zero fill.
	{name: "Adhoc.Send stores the zero fill", file: "internal/net80211/adhoc.go",
		old: "\ta.codec.send(f) // admitted: accepted\n", new: "\tf.Body, f.Zeros = frame.AppendSNAP(a.codec.body(), EtherTypePayload, payload), 0\n\ta.codec.send(f) // admitted: accepted\n",
		kills: []string{"medium.TestBufferCapacities", "medium.TestSimcheckQuickGrids", "medium.TestSimcheckWorkloads"}},
	{name: "STA.Send stores the zero fill", file: "internal/net80211/sta.go",
		old: "\ts.codec.send(f) // admitted: accepted\n", new: "\tif !f.Protected {\n\t\tf.Body, f.Zeros = frame.AppendSNAP(s.codec.body(), EtherTypePayload, payload), 0\n\t}\n\ts.codec.send(f) // admitted: accepted\n",
		kills: []string{"medium.TestSimcheckQuickGrids", "medium.TestSimcheckWorkloads"}},
	{name: "AP.queueFromDS stores the zero fill", file: "internal/net80211/ap.go",
		old: "\tif dozing {\n\t\te.psBuf = append(e.psBuf, f.Clone())\n", new: "\tif !f.Protected {\n\t\tf.Body, f.Zeros = frame.AppendSNAP(ap.codec.body(), EtherTypePayload, payload), 0\n\t}\n\tif dozing {\n\t\te.psBuf = append(e.psBuf, f.Clone())\n",
		kills: []string{"medium.TestSimcheckQuickGrids", "medium.TestSimcheckWorkloads"}},
	{name: "WireLen of a four-address frame ignores Zeros", file: "internal/frame/frame.go",
		old: "return FourAddrLen + len(f.Body) + f.Zeros + FCSLen", new: "return FourAddrLen + len(f.Body) + FCSLen",
		kills: []string{"frame.FuzzZeroTail"}},
	{name: "ZeroTail compares a block only when more bytes remain than its width", file: "internal/frame/frame.go",
		old: "for n >= w && bytes.Equal(b[n-w:n], zeroBlock[:w]) {", new: "for n > w && bytes.Equal(b[n-w:n], zeroBlock[:w]) {",
		kills: []string{"frame.FuzzZeroTail"}},

	// phy: the chunk bounds.
	{name: "ChunkBounds: knot index off by one upward", file: "internal/phy/error.go",
		old: "switch i := int(math.Float64bits(ebN0)>>48) - knotBase; {", new: "switch i := int(math.Float64bits(ebN0)>>48) - knotBase + 1; {",
		kills: []string{"harness.TestF13PriorityAccess", "harness.TestGoldenTrace", "medium.TestBufferCapacities", "medium.TestPartialOverlapMatchesExpectedPER", "medium.TestSegAccumMatchesNaiveTimeline", "phy.FuzzChunkBounds", "phy.TestChunkBoundsContain"}},
	{name: "ChunkBounds: the knot below used for hi", file: "internal/phy/error.go",
		old: "berHi, berLo = knots[i]*(1+knotMargin), knots[i+1]*(1-knotMargin)", new: "berHi, berLo = knots[i]*(1+knotMargin), knots[i]*(1-knotMargin)",
		kills: []string{"medium.TestSegAccumMatchesNaiveTimeline", "phy.FuzzChunkBounds", "phy.TestChunkBoundsContain"}},
	{name: "ChunkBounds: lo not clamped at 0", file: "internal/phy/error.go",
		old: "lo = max(0, (1-n*berHi)*(1-fpMargin))", new: "lo = (1 - n*berHi) * (1 - fpMargin)",
		kills: []string{"harness.TestF13PriorityAccess", "harness.TestGoldenTrace", "mac.TestPureAlohaThroughputShape", "medium.TestBufferCapacities", "medium.TestSegAccumMatchesNaiveTimeline", "phy.FuzzChunkBounds", "phy.TestChunkBoundsContain"}},
	{name: "ChunkBounds: ⌈·⌉ for ⌊·⌋ in hi's exponent", file: "internal/phy/error.go",
		old: "uint64(1023-int(k))<<52", new: "uint64(1023-int(math.Ceil(k)))<<52",
		kills: []string{"core.TestParkedEqualsPolled", "harness.TestF13PriorityAccess", "harness.TestGoldenTrace", "medium.TestBufferCapacities", "medium.TestPartialOverlapMatchesExpectedPER", "medium.TestSegAccumMatchesNaiveTimeline", "phy.FuzzChunkBounds", "phy.TestChunkBoundsContain"}},
	{name: "ChunkBounds: the first knot for 0.5 as the BER bound below the table", file: "internal/phy/error.go",
		old: "berHi, berLo = 0.5, knots[0]*(1-knotMargin)", new: "berHi, berLo = knots[0], knots[0]*(1-knotMargin)",
		kills: []string{"phy.FuzzChunkBounds", "phy.TestChunkBoundsContain"}},
	{name: "ChunkBounds: NaN let through to the below-table bounds", file: "internal/phy/error.go",
		old: "case ebN0 < 0x1p-8: // ≤ 0 and −Inf included", new: "case !(ebN0 >= 0x1p-8):",
		kills: []string{"phy.FuzzChunkBounds", "phy.TestChunkBoundsContain"}},
	{name: "ChunkBounds: the 10⁻⁹ knot margin dropped", file: "internal/phy/error.go",
		old: "knotMargin = 1e-9", new: "knotMargin = 0",
		equivalent: "Erfc and Exp are within an ulp, so the computed curves are monotone to 2 ulps between knots, which the 10⁻¹² margins absorb: lo's factor (1 − n·b ≥ 0.5 for n = 1, Bernoulli's slack beyond) and k's"},
	{name: "ChunkBounds: lo's 10⁻¹² margin dropped", file: "internal/phy/error.go",
		old: "lo = max(0, (1-n*berHi)*(1-fpMargin))", new: "lo = max(0, 1-n*berHi)",
		missing: "at a knot with n·b below 10⁻⁷ the knot margin leaves lo less than an ulp under (1 − b)ⁿ, so only Exp∘Log1p's rounding keeps lo ≤ ChunkSuccess; no input found there (every knot of 802.11a/b/g, n ≤ 20 000)"},
	{name: "ChunkBounds: the 10⁻¹² margin on hi's exponent dropped", file: "internal/phy/error.go",
		old: "(math.Log2E*(1-fpMargin))", new: "math.Log2E",
		equivalent: "the knot margin keeps n·berLo·log₂e 10⁻⁹ of itself under n·b·log₂e, far more than the ulps its product, Log1p and Exp can move it"},
	{name: "ChunkBounds: the 10⁻¹² margin on hi dropped", file: "internal/phy/error.go",
		old: "<<52) * (1 + fpMargin)", new: "<<52)",
		equivalent: "for ⌊k⌋ ≥ 1 (n·b ≥ 0.69) the knot margin puts 2^−⌊k⌋ at least 6.9·10⁻¹⁰ of itself over e^−n·b; for ⌊k⌋ = 0, hi = 1 and Exp of a non-positive number is at most 1"},

	// medium: the receive side and the settled draw.
	{name: "Radio.Transmit keeps the receive lock", file: "internal/medium/radio.go",
		old: "\tr.lock = nil\n\tr.state = stateTx\n", new: "\tr.state = stateTx\n",
		kills: []string{"medium.TestSimcheckQuickGrids", "medium.TestSimcheckWorkloads"}},
	{name: "Radio.Sleep keeps the receive lock", file: "internal/medium/radio.go",
		old: "\tr.lock = nil\n\tr.state = stateSleep\n", new: "\tr.state = stateSleep\n",
		kills: []string{"harness.TestGoldenTrace", "medium.TestSimcheckWorkloads", "medium.TestTransmissionOutlivesItsEdges"}},
	{name: "foldSpan's overflow folds the newest span instead of the oldest", file: "internal/medium/radio.go",
		old: "s.success *= a.t.mode.ChunkSuccess(a.t.rate, s.spans[0].sinr, s.spans[0].bits)\n\t\tcopy(s.spans[:], s.spans[1:])\n", new: "s.success *= a.t.mode.ChunkSuccess(a.t.rate, s.spans[s.n-1].sinr, s.spans[s.n-1].bits)\n",
		kills: []string{"medium.TestSegAccumMatchesNaiveTimeline"}},
	{name: "decoded: u ≤ fold(lo) for u < fold(lo)", file: "internal/medium/radio.go",
		old: "if u < lo {", new: "if u <= lo {",
		kills: []string{"medium.TestSegAccumMatchesNaiveTimeline"}},
	{name: "decoded: u > fold(hi) for u ≥ fold(hi)", file: "internal/medium/radio.go",
		old: "if u >= hi {", new: "if u > hi {",
		equivalent: "at u = fold(hi) the exact fold gives p ≤ fold(hi) = u, so u < p is false too"},
	{name: "decoded: the exact fold starts from 1 instead of success", file: "internal/medium/radio.go",
		old: "\tp := s.success\n", new: "\tp := 1.0\n",
		kills: []string{"medium.TestBufferCapacities", "medium.TestSegAccumMatchesNaiveTimeline"}},
	{name: "segAccum.begin does not reset the record", file: "internal/medium/radio.go",
		old: "\ts.minLin = math.Inf(1)\n\ts.n = 0\n", new: "\ts.minLin = math.Inf(1)\n",
		kills: []string{"harness.TestE1DensityShape", "harness.TestF1TracksBianchi", "harness.TestF5AnomalyCollapse", "harness.TestGoldenTrace", "mac.TestPureAlohaThroughputShape", "mac.TestRetransmissionOnLoss", "mac.TestSlottedAlohaBeatsPure", "medium.TestBufferCapacities", "medium.TestMidSNRDeliveryIsProbabilistic", "medium.TestPartialOverlapMatchesExpectedPER", "repro.TestQuickRunAllocCeiling"}},

	// medium: the fan-out, its fading memo and its storage.
	{name: "the fading memo survives a row rebuild", file: "internal/medium/medium.go",
		old: "\tr.rowFade = nil // the memo is the row's: a rebuilt row has drawn nothing yet\n\tif !m.noFast {\n", new: "\tif !m.noFast && len(r.rowFade) != len(row) {\n",
		kills: []string{"medium.TestFadingMemoInvalidation"}},
	{name: "a too-weak draw leaves the slot's previous powerMW", file: "internal/medium/medium.go",
		old: "s.key, s.power, s.powerMW = fadeKey, power.Add(m.model.Fast.Gain(linkID(r, rx), t.start)), -1", new: "s.key, s.power = fadeKey, power.Add(m.model.Fast.Gain(linkID(r, rx), t.start))",
		kills: []string{"medium.TestFadingMemoInvalidation", "medium.TestTransmitDifferentialAllRadios"}},
	{name: "the fade slot is keyed by the block, not block + 1", file: "internal/medium/medium.go",
		old: "fadeKey := m.model.Fast.Block(t.start) + 1", new: "fadeKey := m.model.Fast.Block(t.start)",
		kills: []string{"harness.TestGoldenTrace", "medium.TestFadingMemoInvalidation", "medium.TestTransmitDifferentialAllRadios"}},
	{name: "the own edge order aliased instead of copied", file: "internal/medium/medium.go",
		old: "\t\tt.own = m.orderRoom(t.own, len(arrs))\n\t\tcopy(t.own, r.lastOwn)\n\t\tt.order = t.own\n", new: "\t\tt.order = r.lastOwn\n",
		kills: []string{"medium.TestEdgeCursorWalk"}},
	{name: "arrival arrays sized without the mobile merge", file: "internal/medium/medium.go",
		old: "arrs := m.arrivalRoom(t, len(row)+len(others))", new: "arrs := m.arrivalRoom(t, len(row))",
		kills: []string{"medium.TestBufferCapacities"}},
	{name: "arrival arrays sized to twice the candidates", file: "internal/medium/medium.go",
		old: "arrs := m.arrivalRoom(t, len(row)+len(others))", new: "arrs := m.arrivalRoom(t, 2*(len(row)+len(others)))",
		kills: []string{"medium.TestBufferCapacities"}},
	{name: "order buffers with room for every radio", file: "internal/medium/medium.go",
		old: "\t\tbuf, m.orderSlab = m.orderSlab[:0:n], m.orderSlab[n:]\n", new: "\t\tbuf = make([]int32, 0, max(n, len(m.radios)))\n",
		kills: []string{"medium.TestBufferCapacities"}},
	{name: "the own edge order left unsorted", file: "internal/medium/medium.go",
		old: "\t\tsortEdges(r.lastOwn, arrs)\n", new: "",
		kills: []string{"core.TestAddESSCorridor", "harness.TestGoldenTrace", "medium.TestMovingFanoutZeroAlloc", "net80211.TestESSTracksRoam", "repro.TestQuickRunAllocCeiling"}},
	{name: "the candidate walk's ranges quartered", file: "internal/medium/candidates.go",
		old: "g.rangeM = append(g.rangeM, d)", new: "g.rangeM = append(g.rangeM, d/4)",
		kills: []string{"harness.TestGoldenTrace", "medium.TestBufferCapacities", "medium.TestTransmitDifferentialAllRadios", "net80211.TestRoamTracksStrongerAP", "repro.TestQuickRunAllocCeiling"}},
	{name: "the candidate walk's position arrays never rebuilt", file: "internal/medium/candidates.go",
		old: "\tif g.gen == m.topoGen {\n", new: "\tif g.gen == m.topoGen || g.gen != 0 {\n",
		kills: []string{"medium.TestEdgeCursorOrder", "medium.TestEdgeCursorWalk", "medium.TestFadingMemoInvalidation", "medium.TestFanoutRowInvalidation", "medium.TestFanoutRowShadowedPath", "medium.TestTransmitDifferentialAllRadios"}},
	{name: "putTransmission drops the arrival array", file: "internal/medium/medium.go",
		old: "\tt.order = nil\n\tif t.decoded != nil {\n", new: "\tt.order = nil\n\tt.arrs = nil\n\tif t.decoded != nil {\n",
		kills: []string{"core.TestSoakSteadyState", "medium.TestBufferCapacities", "medium.TestMovingFanoutZeroAlloc", "medium.TestSteadyStateDecodeZeroAlloc", "medium.TestSteadyStateFanoutZeroAlloc", "medium.TestTransmitFanoutAllocsBounded", "net80211.TestAPBeaconZeroAlloc", "net80211.TestAPSendWEPZeroAlloc", "net80211.TestAPSendZeroAlloc", "net80211.TestAdhocFragmentedSendZeroAlloc", "net80211.TestAdhocSendZeroAlloc", "net80211.TestSTASendWEPZeroAlloc", "net80211.TestSTASendZeroAlloc", "repro.TestQuickRunAllocCeiling"}},
}

// root is the module root, from this package's directory.
func root(t testing.TB) string {
	dir, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestMutantsApply holds each edit to exactly one match in its file, and
// each recorded killer to a test that exists.
func TestMutantsApply(t *testing.T) {
	dir := root(t)
	seen := map[string]bool{}
	for _, m := range mutants {
		if seen[m.name] {
			t.Errorf("%s: listed twice", m.name)
		}
		seen[m.name] = true
		src, err := os.ReadFile(filepath.Join(dir, m.file))
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(src), m.old); n != 1 {
			t.Errorf("%s: %s matches %d times, want once", m.name, m.file, n)
		}
		if (len(m.kills) > 0) == (m.equivalent != "" || m.missing != "") || m.equivalent != "" && m.missing != "" {
			t.Errorf("%s: want killers, or one reason why there are none", m.name)
		}
		for _, k := range m.kills {
			if !testExists(t, dir, k) {
				t.Errorf("%s: killer %s is not a test in the tree", m.name, k)
			}
		}
	}
}

// testExists reports whether pkgTest, as package.Test, names a test
// function in the module. Package names are the last element of the import
// path; the root package is "repro".
func testExists(t *testing.T, dir, pkgTest string) bool {
	pkg, test, _ := strings.Cut(pkgTest, ".")
	var files []string
	for _, pattern := range []string{"*/" + pkg + "/*_test.go", "*/*/" + pkg + "/*_test.go"} {
		m, _ := filepath.Glob(filepath.Join(dir, pattern))
		files = append(files, m...)
	}
	if pkg == "repro" {
		files, _ = filepath.Glob(filepath.Join(dir, "*_test.go"))
	}
	decl := regexp.MustCompile(`(?m)^func ` + regexp.QuoteMeta(test) + `\(`)
	for _, f := range files {
		if src, err := os.ReadFile(f); err == nil && decl.Match(src) {
			return true
		}
	}
	return false
}

// table renders the verdict table PERFORMANCE.md prints.
func table() string {
	var b strings.Builder
	b.WriteString("| mutant | file | walls that fail |\n|---|---|---|\n")
	for _, m := range mutants {
		verdict := strings.Join(m.kills, ", ")
		switch {
		case m.equivalent != "":
			verdict = "none — equivalent: " + m.equivalent
		case m.missing != "":
			verdict = "none — missing wall: " + m.missing
		}
		b.WriteString("| " + m.name + " | `" + m.file + "` | " + verdict + " |\n")
	}
	return b.String()
}

// TestPerformanceTable holds PERFORMANCE.md to the table rendered from the
// list.
func TestPerformanceTable(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join(root(t), "PERFORMANCE.md"))
	if err != nil {
		t.Fatal(err)
	}
	if want := table(); !strings.Contains(string(doc), want) {
		t.Errorf("PERFORMANCE.md does not carry the mutant table; it reads:\n%s", want)
	}
}
