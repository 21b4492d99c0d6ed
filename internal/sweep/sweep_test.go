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
		4: {{"10", "4.71", "basic"}, {"10", "", "extra row # not framing"}},
	}
	st := ShardStats{Points: 2, Rows: 3}
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
	if gotSt != st {
		t.Errorf("stats round-trip: %+v != %+v", gotSt, st)
	}
	// The trailer is the integrity pair and the terminator, nothing else.
	if want := "# stats points=2 rows=3\n# end\n"; !strings.HasSuffix(buf.String(), want) {
		t.Errorf("trailer layout wrong:\n%s", buf.String())
	}
}

func TestWireRejectsUnroundtrippableCells(t *testing.T) {
	for _, row := range [][]string{
		{"a,b"}, {"a\nb"}, {"# looks like framing"},
		// bufio.ScanLines strips a line's trailing '\r': the cell would come
		// back shorter than it went in.
		{"a", "b\r"}, {"a\rb"},
		// A row of no cells encodes as an empty line, which parses as one
		// empty cell.
		{},
	} {
		var buf bytes.Buffer
		err := WriteShard(&buf, Header{Exp: "X"}, map[int][][]string{0: {row}}, ShardStats{Points: 1, Rows: 1})
		if err == nil {
			t.Errorf("row %q encoded without error", row)
		}
	}
}

// ParseShard is as strict as WriteShard: a row the writer refuses to encode
// is refused on the way in too, so whatever parses re-encodes.
func TestParseShardRejectsUnwritableRows(t *testing.T) {
	for _, row := range []string{"a\rb", "b\r\r"} {
		in := "# sweep v1 exp=X shard=0/1 quick=true\n# point 0\n" + row + "\n# stats points=1 rows=1\n# end\n"
		if _, _, _, err := ParseShard(strings.NewReader(in)); err == nil {
			t.Errorf("row %q parsed without error", row)
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

// EvalPoint is the worker side of every transport: it must reject an
// out-of-grid point loudly, before evaluating anything, and return exactly
// the requested point's rows otherwise.
func TestEvalPoint(t *testing.T) {
	e := harness.ByID("T1")
	g := e.Grid(true)
	for _, tc := range []struct {
		name    string
		p       int
		wantErr string
	}{
		{"last point", g.N - 1, ""},
		{"past the grid", g.N, "outside grid"},
		{"negative", -1, "outside grid"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rows, err := EvalPoint(e, true, tc.p)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if want := g.Point(tc.p); !reflect.DeepEqual(rows, want) {
				t.Errorf("point %d: rows %v, want %v", tc.p, rows, want)
			}
		})
	}
}

// shardSeeds are the fuzz seeds both wire-level targets share: a current
// record, a record as the parent of the trailer-shrinking change wrote it,
// a torn tail and a record whose damaged row swallowed the next header.
func shardSeeds() [][]byte {
	cur := []byte("# sweep v1 exp=T1 shard=0/1 quick=true\n# point 0\n802.11,2.00,1.70,84.8\n# stats points=1 rows=1\n# end\n")
	return [][]byte{
		cur,
		[]byte(oldFormatRecord),
		cur[:len(cur)-9],
		append(append([]byte{}, cur[:60]...), cur...),
	}
}

// FuzzParseShard: the shard parser never panics on hostile bytes, and
// whatever it accepts is something WriteShard can have written — it
// re-encodes and re-parses to the same header, points and integrity pair.
// (On the parent commit a row ending in "\r\r" parsed to a cell ending in
// '\r', re-encoded, and came back without it.)
func FuzzParseShard(f *testing.F) {
	for _, seed := range shardSeeds() {
		f.Add(seed)
	}
	f.Add([]byte("# sweep v1 exp=X shard=0/1 quick=false\n# point 3\na,b\r\r\n# stats points=1 rows=1\n# end\n"))
	f.Add([]byte("# sweep v1 exp=X shard=0/1 quick=false\n# point 3\n\na,#b\n# stats points=1 rows=2\n# end\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, byPoint, st, err := ParseShard(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteShard(&buf, h, byPoint, st); err != nil {
			t.Fatalf("accepted shard does not re-encode: %v", err)
		}
		h2, byPoint2, st2, err := ParseShard(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded shard does not parse: %v\n%s", err, buf.String())
		}
		if h2 != h || st2 != st || !reflect.DeepEqual(byPoint2, byPoint) {
			t.Fatalf("re-encoding changed the shard:\n%+v %+v %q\n%+v %+v %q", h, st, byPoint, h2, st2, byPoint2)
		}
	})
}
