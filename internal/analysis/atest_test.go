package analysis

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// moduleRoot is the repository root relative to this package's directory.
const moduleRoot = "../.."

// wantLine matches a // want comment; the remainder of the line holds one
// or more quoted regular expressions, one per expected diagnostic.
var wantLine = regexp.MustCompile(`// want (.*)$`)

// quoted extracts the Go-quoted strings from a want comment tail.
var quoted = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

// fixtures names every testdata package by its path under testdata.
var fixtures = []string{"retainview/rxview", "determinism/sim", "determinism/notsim", "determinism/typo", "hotpathalloc/hot"}

// loadFixtures loads every fixture through Load in one go list call. Each
// keeps its base name (sim, notsim, ...), which scope predicates match on.
var loadFixtures = sync.OnceValues(func() (map[string]*Package, error) {
	patterns := make([]string, len(fixtures))
	for i, f := range fixtures {
		patterns[i] = "./internal/analysis/testdata/" + f
	}
	pkgs, err := Load(moduleRoot, patterns...)
	if err != nil {
		return nil, err
	}
	byFixture := map[string]*Package{}
	for _, pkg := range pkgs {
		byFixture[strings.TrimPrefix(pkg.Path, "repro/internal/analysis/testdata/")] = pkg
	}
	return byFixture, nil
})

// loadFixturePkg returns the loaded testdata/<fixture> package.
func loadFixturePkg(t *testing.T, fixture string) *Package {
	t.Helper()
	pkgs, err := loadFixtures()
	if err != nil {
		t.Fatalf("loading fixtures: %v", err)
	}
	pkg := pkgs[fixture]
	if pkg == nil {
		t.Fatalf("fixture %s was not loaded", fixture)
	}
	return pkg
}

// runFixture applies one analyzer to a testdata fixture and compares its
// diagnostics against the fixture's // want comments: every want must be
// matched by a diagnostic on its line, and every diagnostic must have a
// matching want.
func runFixture(t *testing.T, az *Analyzer, fixture string) {
	t.Helper()
	pkg := loadFixturePkg(t, fixture)
	diags, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{az})
	if err != nil {
		t.Fatalf("running %s on %s: %v", az.Name, fixture, err)
	}

	type lineKey struct {
		file string
		line int
	}
	wants := map[lineKey][]*expectation{}
	for _, f := range pkg.Syntax {
		name := pkg.Fset.Position(f.Pos()).Filename
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			m := wantLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			k := lineKey{name, i + 1}
			for _, q := range quoted.FindAllString(m[1], -1) {
				pat, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %s: %v", name, i+1, q, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", name, i+1, pat, err)
				}
				wants[k] = append(wants[k], &expectation{re: re})
			}
		}
	}

	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		k := lineKey{pos.Filename, pos.Line}
		found := false
		for _, w := range wants[k] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: %s: %s", pos, d.Analyzer, d.Message)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, w.re)
			}
		}
	}
}

func TestRetainViewFixture(t *testing.T) {
	runFixture(t, RetainView, "retainview/rxview")
}

func TestDeterminismFixture(t *testing.T) {
	runFixture(t, Determinism, "determinism/sim")
}

func TestDeterminismIgnoresOtherPackages(t *testing.T) {
	runFixture(t, Determinism, "determinism/notsim")
}

func TestHotPathAllocFixture(t *testing.T) {
	runFixture(t, HotPathAlloc, "hotpathalloc/hot")
}

// TestDirectiveTypos pins the directive-namespace validation: a misspelled
// verb and a reason-less allow-nondeterminism are lint errors in any
// package. The diagnostics land on the directive comments themselves,
// where a // want comment cannot ride, so the expectations are explicit.
func TestDirectiveTypos(t *testing.T) {
	pkg := loadFixturePkg(t, "determinism/typo")
	diags, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{Determinism})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`unknown //wlan: directive "hotpth"`,
		"needs a justification",
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics, want %d: %v", len(diags), len(want), diags)
	}
	for i, w := range want {
		if !strings.Contains(diags[i].Message, w) {
			t.Errorf("diagnostic %d = %q, want substring %q", i, diags[i].Message, w)
		}
	}
}

// TestFixturesCleanUnderOtherAnalyzers runs the full suite over every
// fixture and checks that analyzers only fire inside their own fixture
// trees — guarding against contract predicates bleeding into each other.
func TestFixturesCleanUnderOtherAnalyzers(t *testing.T) {
	fixtures := map[string]map[string]bool{
		// fixture -> analyzers allowed to report there
		"retainview/rxview":  {RetainView.Name: true},
		"determinism/sim":    {Determinism.Name: true},
		"determinism/notsim": {},
		"determinism/typo":   {Determinism.Name: true},
		"hotpathalloc/hot":   {HotPathAlloc.Name: true},
	}
	for fixture, allowed := range fixtures {
		pkg := loadFixturePkg(t, fixture)
		diags, err := RunAnalyzers([]*Package{pkg}, All())
		if err != nil {
			t.Fatalf("%s: %v", fixture, err)
		}
		for _, d := range diags {
			if !allowed[d.Analyzer] {
				t.Errorf("%s: analyzer %s unexpectedly reported: %s", fixture, d.Analyzer, d.Message)
			}
		}
	}
}
