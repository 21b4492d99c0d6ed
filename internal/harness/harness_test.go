package harness

import (
	"strconv"
	"strings"
	"testing"
)

// cell parses a table cell as float.
func cell(t *testing.T, tb interface{ Render() string }, rows [][]string, r, c int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(rows[r][c], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric:\n%s", r, c, rows[r][c], tb.Render())
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"T1", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10", "F11", "F12", "F13", "E1", "E2", "E3", "S1", "A1", "A2"}
	for _, id := range want {
		if ByID(id) == nil {
			t.Errorf("experiment %s not registered", id)
		}
	}
	all := All()
	if len(all) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(all), len(want))
	}
	// Sorted order puts T1 first and the ablations last.
	if all[0].ID != "T1" || all[len(all)-1].ID != "A2" {
		t.Errorf("ordering: first=%s last=%s", all[0].ID, all[len(all)-1].ID)
	}
	for _, e := range all {
		if e.Title == "" || e.Expect == "" || e.Grid == nil {
			t.Errorf("experiment %s incompletely defined", e.ID)
		}
		g := e.Grid(true)
		if g.Table == nil || g.N < 1 || g.Point == nil {
			t.Errorf("experiment %s grid incompletely defined", e.ID)
		}
		if len(g.Table.Rows) != 0 {
			t.Errorf("experiment %s grid skeleton already has rows", e.ID)
		}
	}
}

func TestT1Shape(t *testing.T) {
	tb := ByID("T1").Run(true)
	if len(tb.Rows) != 4 {
		t.Fatalf("T1 rows = %d", len(tb.Rows))
	}
	for i, row := range tb.Rows {
		nominal := cell(t, tb, tb.Rows, i, 1)
		achieved := cell(t, tb, tb.Rows, i, 2)
		if achieved <= 0 {
			t.Errorf("%s achieved nothing", row[0])
		}
		if achieved >= nominal {
			t.Errorf("%s achieved %.2f above nominal %.2f", row[0], achieved, nominal)
		}
	}
	// The slow legacy PHY is the most efficient (overheads amortize over
	// long frames), and 802.11g trails 802.11a (long slot + 6 µs signal
	// extension for b-coexistence).
	effLegacy := cell(t, tb, tb.Rows, 0, 3)
	effA := cell(t, tb, tb.Rows, 2, 3)
	effG := cell(t, tb, tb.Rows, 3, 3)
	if effLegacy <= effA {
		t.Errorf("legacy efficiency %.1f%% should exceed 11a %.1f%%", effLegacy, effA)
	}
	if effG >= effA {
		t.Errorf("11g efficiency %.1f%% should trail 11a %.1f%%", effG, effA)
	}
}

func TestF1TracksBianchi(t *testing.T) {
	tb := ByID("F1").Run(true)
	for i := range tb.Rows {
		simBasic := cell(t, tb, tb.Rows, i, 1)
		anaBasic := cell(t, tb, tb.Rows, i, 3)
		if simBasic <= 0 {
			t.Fatalf("row %d: zero throughput", i)
		}
		rel := (simBasic - anaBasic) / anaBasic
		if rel < -0.15 || rel > 0.15 {
			t.Errorf("n=%s: sim %.2f vs Bianchi %.2f (%.1f%% off)",
				tb.Rows[i][0], simBasic, anaBasic, 100*rel)
		}
	}
}

func TestF2CapacityKnee(t *testing.T) {
	tb := ByID("F2").Run(true)
	// Low offered load is delivered nearly losslessly; the top load is not.
	firstLoss := cell(t, tb, tb.Rows, 0, 2)
	lastLoss := cell(t, tb, tb.Rows, len(tb.Rows)-1, 2)
	if firstLoss > 3 {
		t.Errorf("loss at low load = %.1f%%", firstLoss)
	}
	if lastLoss < 10 {
		t.Errorf("loss beyond capacity = %.1f%%, expected heavy", lastLoss)
	}
	// Delay explodes across the knee.
	firstDelay := cell(t, tb, tb.Rows, 0, 3)
	lastDelay := cell(t, tb, tb.Rows, len(tb.Rows)-1, 3)
	if lastDelay < 3*firstDelay {
		t.Errorf("delay did not blow up: %.2f -> %.2f ms", firstDelay, lastDelay)
	}
}

func TestF3RTSHelpsHiddenTerminals(t *testing.T) {
	tb := ByID("F3").Run(true)
	if len(tb.Rows) != 2 {
		t.Fatalf("F3 rows = %d", len(tb.Rows))
	}
	basic := cell(t, tb, tb.Rows, 0, 1)
	rts := cell(t, tb, tb.Rows, 1, 1)
	if rts <= basic*1.3 {
		t.Errorf("RTS/CTS (%.2f) should clearly beat basic (%.2f) with hidden nodes", rts, basic)
	}
}

func TestF4AdaptationBeatsFixedAtRange(t *testing.T) {
	tb := ByID("F4").Run(true)
	last := len(tb.Rows) - 1
	fixed := cell(t, tb, tb.Rows, last, 1)
	best := 0.0
	for c := 2; c <= 5; c++ {
		if v := cell(t, tb, tb.Rows, last, c); v > best {
			best = v
		}
	}
	if best <= fixed {
		t.Errorf("at max range: best adaptive %.2f <= fixed %.2f", best, fixed)
	}
	// At close range everything should deliver something substantial.
	for c := 1; c <= 5; c++ {
		if v := cell(t, tb, tb.Rows, 0, c); v < 1 {
			t.Errorf("near-range column %d only %.2f Mbit/s", c, v)
		}
	}
}

func TestF5AnomalyCollapse(t *testing.T) {
	tb := ByID("F5").Run(true)
	fastBefore := cell(t, tb, tb.Rows, 0, 1)
	fastAfter := cell(t, tb, tb.Rows, 1, 1)
	slow := cell(t, tb, tb.Rows, 1, 4)
	if fastAfter > fastBefore/2 {
		t.Errorf("fast station barely affected: %.2f -> %.2f", fastBefore, fastAfter)
	}
	// The anomaly equalizes frame rates: fast and slow throughput converge.
	if fastAfter > 3*slow || slow > 3*fastAfter {
		t.Errorf("throughputs did not converge: fast=%.2f slow=%.2f", fastAfter, slow)
	}
}

func TestF6Fairness(t *testing.T) {
	tb := ByID("F6").Run(true)
	for i := range tb.Rows {
		j := cell(t, tb, tb.Rows, i, 1)
		if j < 0.9 {
			t.Errorf("n=%s: Jain index %.3f below 0.9", tb.Rows[i][0], j)
		}
	}
}

func TestF7CWTradeoff(t *testing.T) {
	tb := ByID("F7").Run(true)
	// Small CW at n=20 must underperform larger CW at n=20.
	smallHighN := cell(t, tb, tb.Rows, 0, 2)
	bigHighN := cell(t, tb, tb.Rows, len(tb.Rows)-1, 2)
	if smallHighN >= bigHighN {
		t.Errorf("CW=7 at n=20 (%.2f) should lose to CW=255 (%.2f)", smallHighN, bigHighN)
	}
}

func TestF8FragmentationHelpsOnNoisyChannel(t *testing.T) {
	tb := ByID("F8").Run(true)
	noisyNoFrag := cell(t, tb, tb.Rows, 0, 1)
	noisyFrag := cell(t, tb, tb.Rows, len(tb.Rows)-1, 1)
	if noisyFrag <= noisyNoFrag {
		t.Errorf("fragmentation on noisy channel: %.2f <= %.2f (no frag)", noisyFrag, noisyNoFrag)
	}
	cleanNoFrag := cell(t, tb, tb.Rows, 0, 2)
	cleanFrag := cell(t, tb, tb.Rows, len(tb.Rows)-1, 2)
	if cleanFrag >= cleanNoFrag {
		t.Errorf("fragmentation on clean channel should cost: %.2f >= %.2f", cleanFrag, cleanNoFrag)
	}
}

func TestF9CaptureShape(t *testing.T) {
	tb := ByID("F9").Run(true)
	offTotal := cell(t, tb, tb.Rows, 0, 3)
	onTotal := cell(t, tb, tb.Rows, 1, 3)
	onJain := cell(t, tb, tb.Rows, 1, 4)
	offJain := cell(t, tb, tb.Rows, 0, 4)
	if onTotal < offTotal {
		t.Errorf("capture reduced total: %.2f -> %.2f", offTotal, onTotal)
	}
	if onJain > offJain {
		t.Errorf("capture should reduce fairness: %.3f -> %.3f", offJain, onJain)
	}
}

func TestF10RoamingCompletes(t *testing.T) {
	tb := ByID("F10").Run(true)
	for i, row := range tb.Rows {
		if row[4] != "ap2" {
			t.Errorf("row %d: station ended on %s", i, row[4])
		}
		delivery := cell(t, tb, tb.Rows, i, 2)
		if delivery < 50 {
			t.Errorf("row %d: delivery %.1f%% too low", i, delivery)
		}
	}
}

func TestF11MACOrdering(t *testing.T) {
	tb := ByID("F11").Run(true)
	// At G=1 (last quick row): slotted > pure; TDMA >= DCF >= slotted.
	last := len(tb.Rows) - 1
	aloha := cell(t, tb, tb.Rows, last, 1)
	slotted := cell(t, tb, tb.Rows, last, 2)
	dcf := cell(t, tb, tb.Rows, last, 3)
	tdma := cell(t, tb, tb.Rows, last, 4)
	if slotted <= aloha {
		t.Errorf("slotted (%.3f) should beat pure ALOHA (%.3f) at G=1", slotted, aloha)
	}
	if dcf <= slotted {
		t.Errorf("DCF (%.3f) should beat slotted ALOHA (%.3f) at G=1", dcf, slotted)
	}
	if tdma <= dcf {
		t.Errorf("TDMA (%.3f) should beat DCF (%.3f) at G=1", tdma, dcf)
	}
	// Theory columns match the law at each G.
	for i := range tb.Rows {
		g, _ := strconv.ParseFloat(tb.Rows[i][0], 64)
		gotPure := cell(t, tb, tb.Rows, i, 5)
		if diff := gotPure - g*mathExp(-2*g); diff > 0.01 || diff < -0.01 {
			t.Errorf("pure theory at G=%.2f: %.3f", g, gotPure)
		}
	}
}

// mathExp avoids importing math just for the test.
func mathExp(x float64) float64 {
	// e^x via the stdlib would be fine; keep precision by delegating.
	return expImpl(x)
}

func TestS1SecurityTable(t *testing.T) {
	tb := ByID("S1").Run(true)
	if len(tb.Rows) != 4 {
		t.Fatalf("S1 rows = %d", len(tb.Rows))
	}
	// WEP forgery accepted; everything else rejected.
	if tb.Rows[0][2] != "true" {
		t.Error("WEP bit-flip forgery should be accepted (that is the attack)")
	}
	for i := 1; i < 4; i++ {
		if tb.Rows[i][2] != "false" {
			t.Errorf("row %d (%s/%s) should be rejected", i, tb.Rows[i][0], tb.Rows[i][1])
		}
	}
}

func TestTablesRenderAndCSV(t *testing.T) {
	for _, e := range []string{"T1", "S1"} {
		tb := ByID(e).Run(true)
		if !strings.Contains(tb.Render(), tb.Title) {
			t.Errorf("%s render missing title", e)
		}
		if len(strings.Split(tb.CSV(), "\n")) < len(tb.Rows)+1 {
			t.Errorf("%s CSV too short", e)
		}
	}
}

func TestF12PowerSaveTradeoffs(t *testing.T) {
	tb := ByID("F12").Run(true)
	if len(tb.Rows) != 2 {
		t.Fatalf("quick F12 rows = %d", len(tb.Rows))
	}
	awakeDelay := cell(t, tb, tb.Rows, 0, 2)
	psDelay := cell(t, tb, tb.Rows, 1, 2)
	if psDelay < 5*awakeDelay {
		t.Errorf("PS delay %.2fms not clearly above awake %.2fms", psDelay, awakeDelay)
	}
	// PS latency lands near half the 102.4 ms beacon interval.
	if psDelay < 25 || psDelay > 90 {
		t.Errorf("PS mean delay %.2fms outside the half-interval band", psDelay)
	}
	awakeSleep := cell(t, tb, tb.Rows, 0, 4)
	psSleep := cell(t, tb, tb.Rows, 1, 4)
	if awakeSleep != 0 {
		t.Errorf("awake station slept %.1f%%", awakeSleep)
	}
	if psSleep < 70 {
		t.Errorf("PS station slept only %.1f%%", psSleep)
	}
	awakeEnergy := cell(t, tb, tb.Rows, 0, 5)
	psEnergy := cell(t, tb, tb.Rows, 1, 5)
	if psEnergy >= awakeEnergy/2 {
		t.Errorf("PS energy %.2fJ not well below awake %.2fJ", psEnergy, awakeEnergy)
	}
}

func TestA1PreambleGainShrinksWithSize(t *testing.T) {
	tb := ByID("A1").Run(true)
	smallGain := cell(t, tb, tb.Rows, 0, 3)
	bigGain := cell(t, tb, tb.Rows, len(tb.Rows)-1, 3)
	if smallGain <= bigGain {
		t.Errorf("short-preamble gain should shrink with size: %.1f%% -> %.1f%%", smallGain, bigGain)
	}
	if smallGain < 5 {
		t.Errorf("small-frame gain only %.1f%%", smallGain)
	}
	for i := range tb.Rows {
		if g := cell(t, tb, tb.Rows, i, 3); g < 0 {
			t.Errorf("row %d: negative gain %.1f%%", i, g)
		}
	}
}

func TestA2MarginBounds(t *testing.T) {
	tb := ByID("A2").Run(true)
	// Margin far above the 25 dB power gap: no captures, the near station
	// wins less than with a permissive margin.
	nearSmall := cell(t, tb, tb.Rows, 0, 1)
	nearHuge := cell(t, tb, tb.Rows, len(tb.Rows)-1, 1)
	if nearSmall <= nearHuge {
		t.Errorf("permissive margin (%.2f) should beat disabled-capture margin (%.2f) for the near station",
			nearSmall, nearHuge)
	}
}

func TestF13PriorityAccess(t *testing.T) {
	tb := ByID("F13").Run(true)
	legacyMean := cell(t, tb, tb.Rows, 0, 1)
	edcaMean := cell(t, tb, tb.Rows, 1, 1)
	if edcaMean >= legacyMean/5 {
		t.Errorf("EDCA voice latency %.2fms not clearly below legacy %.2fms", edcaMean, legacyMean)
	}
	if edcaMean > 5 {
		t.Errorf("prioritized voice latency %.2fms above the VoIP budget", edcaMean)
	}
	// Background throughput must not collapse from the differentiation.
	legacyBG := cell(t, tb, tb.Rows, 0, 4)
	edcaBG := cell(t, tb, tb.Rows, 1, 4)
	if edcaBG < 0.8*legacyBG {
		t.Errorf("background throughput collapsed: %.2f -> %.2f", legacyBG, edcaBG)
	}
}

func TestE1DensityShape(t *testing.T) {
	tb := ByID("E1").Run(true)
	if len(tb.Rows) != 2 {
		t.Fatalf("quick E1 rows = %d", len(tb.Rows))
	}
	// Event rate grows with density, and light Poisson load keeps delivery high.
	small := cell(t, tb, tb.Rows, 0, 1)
	large := cell(t, tb, tb.Rows, 1, 1)
	if large <= small {
		t.Errorf("events/vs did not grow with density: %.0f -> %.0f", small, large)
	}
	for i := range tb.Rows {
		if d := cell(t, tb, tb.Rows, i, 3); d < 80 {
			t.Errorf("row %d: delivery %.1f%% too low for light load", i, d)
		}
	}
}

func TestE2RoamingWave(t *testing.T) {
	tb := ByID("E2").Run(true)
	for i, row := range tb.Rows {
		aps := cell(t, tb, tb.Rows, i, 0)
		stas := cell(t, tb, tb.Rows, i, 1)
		roams := cell(t, tb, tb.Rows, i, 2)
		handoffs := cell(t, tb, tb.Rows, i, 3)
		final := cell(t, tb, tb.Rows, i, 6)
		// Every station crosses every AP span exactly once.
		if want := stas * (aps - 1); roams != want {
			t.Errorf("row %d: %.0f roams, want %.0f", i, roams, want)
		}
		if handoffs != roams {
			t.Errorf("row %d: %.0f handoffs for %.0f roams — DS announcements missed stale associations", i, handoffs, roams)
		}
		if final != stas {
			t.Errorf("row %d: only %.0f/%.0f stations ended on the far AP", i, final, stas)
		}
		if d := cell(t, tb, tb.Rows, i, 4); d < 50 {
			t.Errorf("row %d (%v): delivery %.1f%% too low", i, row[0], d)
		}
	}
}

func TestE3FlashCrowd(t *testing.T) {
	tb := ByID("E3").Run(true)
	for i := range tb.Rows {
		if agg := cell(t, tb, tb.Rows, i, 1); agg <= 0 {
			t.Errorf("row %d: no aggregate goodput", i)
		}
		if d := cell(t, tb, tb.Rows, i, 2); d < 50 {
			t.Errorf("row %d: delivery %.1f%%", i, d)
		}
		mean := cell(t, tb, tb.Rows, i, 3)
		p95 := cell(t, tb, tb.Rows, i, 4)
		if mean <= 0 || p95 <= 0 {
			t.Errorf("row %d: degenerate latency mean=%.3f p95=%.3f", i, mean, p95)
		}
	}
}

func TestCostHints(t *testing.T) {
	// The E family's grids are heavily skewed, which is exactly what the
	// Cost hints exist for: costs must be positive and strictly increasing
	// with density so work stealing can balance workers.
	g := ByID("E1").Grid(true)
	costs := g.Costs()
	if len(costs) != g.N {
		t.Fatalf("Costs returned %d entries for %d points", len(costs), g.N)
	}
	for i := 1; i < len(costs); i++ {
		if costs[i] <= costs[i-1] || costs[i-1] <= 0 {
			t.Fatalf("E1 cost hints not increasing: %v", costs)
		}
	}
	// A grid without hints reports uniform unit cost.
	uniform := &Grid{N: 3}
	if uniform.PointCost(1) != 1 {
		t.Fatalf("hintless PointCost = %v, want 1", uniform.PointCost(1))
	}
}
