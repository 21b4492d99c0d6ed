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
	"T1": 1238, "F1": 7203, "F2": 3821, "F3": 1010, "F4": 4405,
	"F5": 1668, "F6": 2702, "F7": 15884, "F8": 1459, "F9": 1004,
	"F10": 294, "F11": 408293, "F12": 876, "F13": 3645,
	"E1": 13436, "E2": 614, "E3": 870, "S1": 39, "A1": 1222, "A2": 1002,
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
