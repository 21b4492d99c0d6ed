package analysis

import (
	"errors"
	"go/token"
	"strings"
	"testing"
)

// TestTypeOfNilInfo pins the nil-safety of Pass.TypeOf for passes built
// without type information.
func TestTypeOfNilInfo(t *testing.T) {
	p := &Pass{}
	if got := p.TypeOf(nil); got != nil {
		t.Errorf("TypeOf on a Pass without TypesInfo = %v, want nil", got)
	}
}

// TestPassPosition resolves a diagnostic position through the pass fset.
func TestPassPosition(t *testing.T) {
	fset := token.NewFileSet()
	f := fset.AddFile("x.go", -1, 100)
	p := &Pass{Fset: fset}
	if got := p.Position(f.Pos(10)); got.Filename != "x.go" {
		t.Errorf("Position filename = %q, want x.go", got.Filename)
	}
}

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
		if got := diagLess(fset, c.x, c.y); got != c.want {
			t.Errorf("%s: diagLess = %v, want %v", c.name, got, c.want)
		}
		if c.want {
			if back := diagLess(fset, c.y, c.x); back {
				t.Errorf("%s: diagLess is not antisymmetric", c.name)
			}
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
