package sweep

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/stats"
)

func TestWireRoundTrip(t *testing.T) {
	h := Header{Exp: "F1", Shard: 1, Shards: 3, Quick: true}
	byPoint := map[int][][]string{
		1: {{"1", "0.85", "rts/cts"}},
		4: {{"10", "4.71", "basic"}, {"10", "4.40", "extra row"}},
	}
	st := ShardStats{Shard: 1, Points: 2, Rows: 3, WallNs: 123, Allocs: 45, Bytes: 678, Events: 90,
		Metrics: map[string]uint64{
			"wlan_sim_events_total":              90,
			`wlan_trace_events_total{kind="tx"}`: 7,
		}}
	var buf bytes.Buffer
	if err := WriteShard(&buf, h, byPoint, st); err != nil {
		t.Fatal(err)
	}
	gotH, gotPts, gotSt, err := ParseShard(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, buf.String())
	}
	if gotH != h {
		t.Errorf("header round-trip: %+v != %+v", gotH, h)
	}
	if !reflect.DeepEqual(gotPts, byPoint) {
		t.Errorf("points round-trip:\n%v\n%v", gotPts, byPoint)
	}
	if !reflect.DeepEqual(gotSt, st) {
		t.Errorf("stats round-trip: %+v != %+v", gotSt, st)
	}
	// Metric trailer lines sit between # stats and # end, sorted by name.
	want := "# metric wlan_sim_events_total 90\n" +
		"# metric wlan_trace_events_total{kind=\"tx\"} 7\n" +
		"# end\n"
	if !strings.HasSuffix(buf.String(), want) {
		t.Errorf("trailer layout wrong:\n%s", buf.String())
	}
}

func TestWireRejectsUnroundtrippableCells(t *testing.T) {
	for _, cell := range []string{"a,b", "a\nb", "# looks like framing"} {
		var buf bytes.Buffer
		err := WriteShard(&buf, Header{Exp: "X"}, map[int][][]string{0: {{cell}}}, ShardStats{Points: 1, Rows: 1})
		if err == nil {
			t.Errorf("cell %q encoded without error", cell)
		}
	}
}

func TestParseShardRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	byPoint := map[int][][]string{0: {{"a"}}, 1: {{"b"}}}
	if err := WriteShard(&buf, Header{Exp: "F1", Shards: 1}, byPoint, ShardStats{Points: 2, Rows: 2}); err != nil {
		t.Fatal(err)
	}
	full := buf.String()
	if _, _, _, err := ParseShard(strings.NewReader(strings.TrimSuffix(full, "# end\n"))); err == nil {
		t.Error("missing # end not detected")
	}
	cut := strings.Replace(full, "# point 1\nb\n", "", 1)
	if _, _, _, err := ParseShard(strings.NewReader(cut)); err == nil {
		t.Error("dropped point not detected against the stats trailer")
	}
}

func TestMergeValidates(t *testing.T) {
	mk := func() *stats.Table { return stats.NewTable("t", "c") }
	if _, err := Merge(mk(), 2, []map[int][][]string{{0: {{"a"}}}}); err == nil {
		t.Error("missing point accepted")
	}
	if _, err := Merge(mk(), 2, []map[int][][]string{{0: {{"a"}}}, {0: {{"a"}}, 1: {{"b"}}}}); err == nil {
		t.Error("duplicate point accepted")
	}
	if _, err := Merge(mk(), 1, []map[int][][]string{{0: {{"a"}}, 1: {{"b"}}}}); err == nil {
		t.Error("out-of-grid point accepted")
	}
	tb, err := Merge(mk(), 2, []map[int][][]string{{1: {{"b"}}}, {0: {{"a1"}, {"a2"}}}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tb.Rows, [][]string{{"a1"}, {"a2"}, {"b"}}) {
		t.Errorf("merged rows out of order: %v", tb.Rows)
	}
}

// RunWorkerPoints must reject out-of-grid and duplicated point lists
// loudly instead of corrupting a merge.
func TestRunWorkerPointsValidates(t *testing.T) {
	e := harness.ByID("S1")
	var buf bytes.Buffer
	if err := RunWorkerPoints(e, []int{99}, true, &buf); err == nil {
		t.Error("out-of-grid point accepted")
	}
	if err := RunWorkerPoints(e, []int{0, 0}, true, &buf); err == nil {
		t.Error("duplicated point accepted")
	}
}

// Point-list round-trip, including the empty sentinel.
func TestFormatParsePoints(t *testing.T) {
	for _, pts := range [][]int{{}, {0}, {3, 1, 4}} {
		got, err := ParsePoints(FormatPoints(pts))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(pts) {
			t.Fatalf("round-trip %v -> %v", pts, got)
		}
		for i := range pts {
			if got[i] != pts[i] {
				t.Fatalf("round-trip %v -> %v", pts, got)
			}
		}
	}
	for _, bad := range []string{"1,x", "1x", "1 2", ""} {
		if _, err := ParsePoints(bad); err == nil {
			t.Errorf("garbage point list %q accepted", bad)
		}
	}
}

// FuzzParsePoints: the point-list parser never panics, and whatever it
// accepts survives a FormatPoints round trip.
func FuzzParsePoints(f *testing.F) {
	for _, seed := range []string{"none", "0", "3,1,4", "999", "1,x", "1x", "1 2", "", "1,,2", "-1"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		pts, err := ParsePoints(spec)
		if err != nil {
			return
		}
		again, err := ParsePoints(FormatPoints(pts))
		if err != nil || !reflect.DeepEqual(again, pts) {
			t.Fatalf("%q -> %v re-formats to %q -> %v, %v", spec, pts, FormatPoints(pts), again, err)
		}
	})
}
