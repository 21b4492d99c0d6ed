package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/harness"
)

// quickRunAllocs is the heap-allocation count of one warmed quick run of
// each experiment (harness.Grid.Run: one point after another on this
// goroutine, so the count is a property of the code, not of the host; it
// moves by a handful between runs with map growth).
var quickRunAllocs = map[string]uint64{
	"T1": 1348, "F1": 7691, "F2": 4400, "F3": 1066, "F4": 4750,
	"F5": 1792, "F6": 2900, "F7": 16831, "F8": 1536, "F9": 1073,
	"F10": 508, "F11": 413705, "F12": 998, "F13": 3994,
	"E1": 13738, "E2": 1032, "E3": 964, "S1": 39, "A1": 1316, "A2": 1073,
}

// TestQuickRunAllocCeiling fails when any experiment allocates over 10 %
// more than the table: a per-event or per-frame allocation on a data path
// multiplies these counts. A count that falls over 10 % below fails too, so
// the ceiling follows every gain down instead of going slack. Update the
// entry with the printed value when the change is intended.
func TestQuickRunAllocCeiling(t *testing.T) {
	exps := harness.All()
	if len(exps) != len(quickRunAllocs) {
		t.Errorf("%d experiments registered, %d in quickRunAllocs", len(exps), len(quickRunAllocs))
	}
	var ms runtime.MemStats
	for _, e := range exps {
		want, ok := quickRunAllocs[e.ID]
		if !ok {
			t.Errorf("%s has no entry in quickRunAllocs", e.ID)
			continue
		}
		e.Run(true) // grow pools, page in code paths
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		e.Run(true)
		runtime.ReadMemStats(&ms)
		got := ms.Mallocs - before
		if got*10 > want*11 || got*10 < want*9 {
			t.Errorf("%s: %d allocs per quick run, table says %d (±10 %%)", e.ID, got, want)
		}
	}
}
