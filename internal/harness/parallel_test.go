package harness

import (
	"reflect"
	"sync"
	"testing"
)

// Concurrent evaluation must be invisible in the results: every scenario
// point is an independent simulation, so evaluating all points of a grid at
// once, each on its own goroutine, must yield the rows of the sequential
// run bit for bit — and the sequential run must repeat itself (the
// event/object pools cannot leak state between runs either). This is the
// Grid contract the sweep engine's workers rely on, stated without the
// engine.
func TestParallelRowsBitIdentical(t *testing.T) {
	for _, id := range []string{"T1", "F1", "F2", "F9"} {
		e := ByID(id)
		if e == nil {
			t.Fatalf("experiment %s not registered", id)
		}
		seq := e.Run(true).Rows
		seqAgain := e.Run(true).Rows
		if !reflect.DeepEqual(seq, seqAgain) {
			t.Fatalf("%s: sequential runs differ:\n%v\n%v", id, seq, seqAgain)
		}
		g := e.Grid(true)
		groups := make([][][]string, g.N)
		var wg sync.WaitGroup
		for i := range groups {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				groups[i] = g.Point(i)
			}(i)
		}
		wg.Wait()
		var par [][]string
		for _, rows := range groups {
			par = append(par, rows...)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("%s: concurrently evaluated rows differ from sequential:\n%v\n%v", id, seq, par)
		}
	}
}
