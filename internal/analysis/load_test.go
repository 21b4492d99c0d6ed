package analysis

import "testing"

// TestLoadRealPackage loads a real repo package through the go list +
// export-data pipeline and checks the pieces analyzers rely on.
func TestLoadRealPackage(t *testing.T) {
	pkgs, err := Load(moduleRoot, "./internal/geom")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("got %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.Path != "repro/internal/geom" {
		t.Errorf("Path = %q", pkg.Path)
	}
	if len(pkg.Syntax) == 0 {
		t.Error("no syntax trees")
	}
	if pkg.Types == nil || pkg.TypesInfo == nil {
		t.Error("missing type information")
	}
}

// TestLoadBadPattern surfaces go list errors instead of analyzing nothing.
func TestLoadBadPattern(t *testing.T) {
	if _, err := Load(moduleRoot, "./internal/does-not-exist"); err == nil {
		t.Fatal("expected an error for a nonexistent package pattern")
	}
}

// TestPackageBase pins the scope predicate helper.
func TestPackageBase(t *testing.T) {
	cases := map[string]string{
		"repro/internal/sim": "sim",
		"repro/internal/analysis/testdata/determinism/sim": "sim",
		"sim": "sim",
	}
	for in, want := range cases {
		if got := PackageBase(in); got != want {
			t.Errorf("PackageBase(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestRepoClean is the regression guard: the committed tree must produce
// zero diagnostics under the full analyzer suite, the same check CI's lint
// job runs through cmd/wlanlint. Any new finding is either a real contract
// violation or needs an audited //wlan: directive.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	pkgs, err := Load(moduleRoot, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; pattern ./... should cover the module", len(pkgs))
	}
	diags, err := RunAnalyzers(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		// All packages share one FileSet under Load.
		t.Errorf("%s: %s: %s", pkgs[0].Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}
