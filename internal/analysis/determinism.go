package analysis

import (
	"go/ast"
	"go/types"
)

// detPackages names the sim-deterministic packages: a scenario run twice
// with the same seed must produce bit-identical results, so these
// packages may draw randomness only from seeded internal/rng streams,
// must never read the wall clock, and must not let map iteration order
// reach scheduling decisions or output. Matched by package base name so
// testdata fixtures exercise the same predicate.
var detPackages = map[string]bool{
	"sim":      true,
	"phy":      true,
	"medium":   true,
	"mac":      true,
	"net80211": true,
	"rate":     true,
	"traffic":  true,
	"geom":     true,
	"wep":      true,
	"harness":  true,
	// obs is deterministic on its instrument/flush path (scenario results
	// must not change with metrics on); its map-order snapshot walks and
	// the HTTP layer's wall-clock scrape timestamp carry audited
	// //wlan:allow-nondeterminism escapes.
	"obs": true,
}

// wallClockFuncs are the time package functions that read the wall clock
// or tie execution to it.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// Determinism enforces bit-reproducibility in the sim-deterministic
// packages and validates the //wlan: directive namespace everywhere.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, global math/rand, crypto/rand and map-order " +
		"iteration in sim-deterministic packages (seeded internal/rng only); " +
		"//wlan:allow-nondeterminism <reason> marks audited escapes",
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) error {
	checkDirectives(pass)
	if !detPackages[PackageBase(pass.Path)] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkNondetUse(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkDirectives rejects unknown //wlan: verbs and reason-less
// allow-nondeterminism escapes, in every package: a typo in a directive
// must fail the build, not silently stop suppressing.
func checkDirectives(pass *Pass) {
	for _, d := range pass.Directives {
		switch {
		case !d.Known():
			pass.Reportf(d.Pos, "unknown //wlan: directive %q (known: %s, %s)",
				d.Verb, VerbHotPath, VerbAllowNondeterminism)
		case d.Verb == VerbAllowNondeterminism && d.Args == "":
			pass.Reportf(d.Pos, "//wlan:%s needs a justification: why is this nondeterminism harmless?",
				VerbAllowNondeterminism)
		}
	}
}

// checkNondetUse flags selector uses of wall-clock and unseeded
// randomness sources: time.Now and friends, and anything at all from
// math/rand, math/rand/v2 or crypto/rand — sim code draws randomness
// from seeded internal/rng streams only.
func checkNondetUse(pass *Pass, sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	obj, ok := pass.TypesInfo.Uses[id]
	if !ok {
		return
	}
	pkgName, ok := obj.(*types.PkgName)
	if !ok {
		return
	}
	switch pkgName.Imported().Path() {
	case "time":
		if wallClockFuncs[sel.Sel.Name] && !pass.Suppressed(sel.Pos()) {
			pass.Reportf(sel.Pos(), "determinism contract: time.%s reads the wall clock; "+
				"sim-deterministic packages schedule on sim.Time only", sel.Sel.Name)
		}
	case "math/rand", "math/rand/v2":
		if !pass.Suppressed(sel.Pos()) {
			pass.Reportf(sel.Pos(), "determinism contract: %s is not seed-reproducible; "+
				"draw from a seeded internal/rng stream", pkgName.Imported().Path())
		}
	case "crypto/rand":
		if !pass.Suppressed(sel.Pos()) {
			pass.Reportf(sel.Pos(), "determinism contract: crypto/rand is nondeterministic by design; "+
				"draw from a seeded internal/rng stream")
		}
	}
}

// checkMapRange flags range statements over map types: Go randomizes map
// iteration order per process, so any map range whose effects reach
// scheduling or output breaks bit-reproducibility. Order-independent
// reductions (counts, integer sums) carry a //wlan:allow-nondeterminism
// justification; everything else iterates sorted keys instead.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if pass.Suppressed(rng.Pos()) {
		return
	}
	pass.Reportf(rng.Pos(), "determinism contract: map iteration order is randomized per process; "+
		"iterate sorted keys, or annotate //wlan:allow-nondeterminism <reason> if the reduction is order-independent")
}
