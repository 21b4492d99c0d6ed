// Package analysis implements wlanlint, a static-analysis suite that
// proves the repo's cross-cutting contracts at build time instead of
// trusting prose and runtime regression tests to catch violations after
// they execute:
//
//   - retainview: delivered RX frames are zero-copy views into pooled
//     decode buffers; storing one (or its body) past the handler without
//     frame.Frame.Clone is flagged.
//   - determinism: sim-deterministic packages must stay bit-reproducible —
//     wall-clock reads, global math/rand, crypto/rand and map-iteration
//     ranges are flagged unless a //wlan:allow-nondeterminism directive
//     carries an audited justification.
//   - hotpathalloc: functions annotated //wlan:hotpath must not contain
//     allocation-inducing constructs (escaping composite literals,
//     fresh-slice appends, closures, interface boxing, string<->[]byte
//     conversions) — the compile-time complement to the runtime
//     zero-alloc tests and TestSoakSteadyState.
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis API
// shape (Analyzer, Pass, Diagnostic) so the analyzers could be rehosted on
// the upstream driver unchanged, but it depends only on the standard
// library: packages are loaded with `go list -export` and type-checked
// from source (see load.go), which keeps the module dependency-free. Load
// is the only loader: cmd/wlanlint, TestRepoClean and the testdata fixture
// tests all go through it.
package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Analyzer describes one named analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and documentation.
	Name string
	// Doc is a one-paragraph description of the contract enforced.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// Pass presents one type-checked package to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	// Path is the package's import path as loaded. For testdata fixtures
	// this is a repro/internal/analysis/testdata/... path; scope
	// predicates must use PackageBase rather than exact matches.
	Path string
	// TypesInfo carries the type-checker's results for Files.
	TypesInfo *types.Info
	// Directives holds every parsed //wlan: directive in Files.
	Directives []Directive
	// report receives diagnostics.
	report func(Diagnostic)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a diagnostic against the pass's analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Suppressed reports whether an allow-nondeterminism directive covers pos:
// the directive suppresses findings on its own source line and, when it
// stands alone on a line, on the line directly below it.
func (p *Pass) Suppressed(pos token.Pos) bool {
	at := p.Fset.Position(pos)
	for _, d := range p.Directives {
		dp := p.Fset.Position(d.Pos)
		if d.Verb == VerbAllowNondeterminism && dp.Filename == at.Filename &&
			(dp.Line == at.Line || d.alone && dp.Line+1 == at.Line) {
			return true
		}
	}
	return false
}

// PackageBase returns the last element of an import path. Contract scope
// predicates match on it so testdata fixtures (loaded under
// repro/internal/analysis/testdata/... paths) exercise the same code as
// the real tree.
func PackageBase(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// IsNamed reports whether t (after pointer indirection) is the named type
// pkgBase.name, matching by package base path so fixtures that re-declare
// the shape under testdata still match.
func IsNamed(t types.Type, pkgBase, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	return PackageBase(obj.Pkg().Path()) == pkgBase
}

// All returns the full wlanlint analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{RetainView, Determinism, HotPathAlloc}
}

// RunAnalyzers applies every analyzer to every package and returns the
// collected diagnostics ordered by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Syntax,
				Pkg:        pkg.Types,
				Path:       pkg.Path,
				TypesInfo:  pkg.TypesInfo,
				Directives: pkg.Directives,
				report:     func(d Diagnostic) { diags = append(diags, d) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	if len(diags) > 0 {
		// Every package of one Load shares its FileSet.
		fset := pkgs[0].Fset
		slices.SortStableFunc(diags, func(a, b Diagnostic) int { return compareDiags(fset, a, b) })
	}
	return diags, nil
}

// compareDiags orders diagnostics by (file, line, column, analyzer).
func compareDiags(fset *token.FileSet, a, b Diagnostic) int {
	pa, pb := fset.Position(a.Pos), fset.Position(b.Pos)
	return cmp.Or(
		strings.Compare(pa.Filename, pb.Filename),
		cmp.Compare(pa.Line, pb.Line),
		cmp.Compare(pa.Column, pb.Column),
		strings.Compare(a.Analyzer, b.Analyzer),
	)
}
