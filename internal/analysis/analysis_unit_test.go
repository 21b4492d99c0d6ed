package analysis

import (
	"errors"
	"go/token"
	"strings"
	"testing"
)

// TestRunAnalyzersPropagatesErrors surfaces an analyzer failure with the
// analyzer and package named.
func TestRunAnalyzersPropagatesErrors(t *testing.T) {
	pkg := loadFixturePkg(t, "determinism/notsim")
	boom := &Analyzer{
		Name: "boom",
		Doc:  "always fails",
		Run:  func(*Pass) error { return errors.New("kaput") },
	}
	_, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{boom})
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "kaput") {
		t.Fatalf("err = %v, want analyzer failure naming boom", err)
	}
}

// TestRunAnalyzersNoPackages tolerates an empty package list.
func TestRunAnalyzersNoPackages(t *testing.T) {
	diags, err := RunAnalyzers(nil, All())
	if err != nil || len(diags) != 0 {
		t.Fatalf("got %v, %v; want no diagnostics, no error", diags, err)
	}
}

// TestDiagLess pins the (file, line, col, analyzer) diagnostic ordering.
func TestDiagLess(t *testing.T) {
	fset := token.NewFileSet()
	fa := fset.AddFile("a.go", -1, 100)
	fb := fset.AddFile("b.go", -1, 100)
	fa.AddLine(10)
	cases := []struct {
		name string
		x, y Diagnostic
		want bool
	}{
		{"file", Diagnostic{Pos: fa.Pos(1)}, Diagnostic{Pos: fb.Pos(1)}, true},
		{"line", Diagnostic{Pos: fa.Pos(1)}, Diagnostic{Pos: fa.Pos(50)}, true},
		{"column", Diagnostic{Pos: fa.Pos(12)}, Diagnostic{Pos: fa.Pos(14)}, true},
		{"analyzer", Diagnostic{Pos: fa.Pos(1), Analyzer: "a"}, Diagnostic{Pos: fa.Pos(1), Analyzer: "b"}, true},
		{"equal", Diagnostic{Pos: fa.Pos(1), Analyzer: "a"}, Diagnostic{Pos: fa.Pos(1), Analyzer: "a"}, false},
	}
	for _, c := range cases {
		if got := compareDiags(fset, c.x, c.y) < 0; got != c.want {
			t.Errorf("%s: x before y = %v, want %v", c.name, got, c.want)
		}
		if back := compareDiags(fset, c.y, c.x); c.want && back <= 0 || !c.want && back != 0 {
			t.Errorf("%s: compareDiags(y, x) = %d, not antisymmetric", c.name, back)
		}
	}
}

// TestAllAnalyzers pins the published suite: names are unique, documented,
// and the three contracts are present.
func TestAllAnalyzers(t *testing.T) {
	want := map[string]bool{"retainview": true, "determinism": true, "hotpathalloc": true}
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Doc == "" || a.Run == nil {
			t.Errorf("%s: missing Doc or Run", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %s", a.Name)
		}
		seen[a.Name] = true
	}
	for n := range want {
		if !seen[n] {
			t.Errorf("missing analyzer %s", n)
		}
	}
}
