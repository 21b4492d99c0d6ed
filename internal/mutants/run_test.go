//go:build mutants

package mutants

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestMutants runs the matrix: each mutant, applied through an overlay,
// against the tests of every wall package. Packages the edit does not reach
// come from the test cache.
func TestMutants(t *testing.T) {
	dir := root(t)
	// The go command caches this test's result against the files this
	// process opens, and the walls are read by the go test it starts: read
	// every file they can read (sources, goldens, corpora), so that any
	// edit reruns the matrix.
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != dir && (strings.HasPrefix(d.Name(), ".") || path == filepath.Join(dir, "bench")):
			return filepath.SkipDir
		case d.Type().IsRegular():
			_, err = os.ReadFile(path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("go", "list", dir+"/...").Output()
	if err != nil {
		t.Fatal(err)
	}
	var walls []string
	for _, p := range strings.Fields(string(out)) {
		if !slices.Contains(skipped, p) {
			walls = append(walls, p)
		}
	}
	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			got := run(t, dir, m, walls)
			if !slices.Equal(got, m.kills) {
				t.Errorf("killed by %q, want %q", got, m.kills)
			}
		})
	}
}

// run applies m through an overlay, runs the walls and returns the
// top-level tests that failed, as package.Test, sorted.
func run(t *testing.T, dir string, m mutant, walls []string) []string {
	src, err := os.ReadFile(filepath.Join(dir, m.file))
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	mutated := filepath.Join(tmp, filepath.Base(m.file))
	overlay := filepath.Join(tmp, "overlay.json")
	spec, _ := json.Marshal(map[string]map[string]string{"Replace": {filepath.Join(dir, m.file): mutated}})
	if err := os.WriteFile(mutated, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(overlay, spec, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", append([]string{"test", "-json", "-overlay", overlay}, walls...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, _ := cmd.Output() // a killed mutant exits non-zero
	var kills []string
	pkgFailed := map[string]bool{}
	pkgOutput := map[string]string{} // what a package printed outside its tests
	var build string                 // compiler errors, reported apart from any package
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev struct{ Action, Package, Test, Output string }
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		pkg := ev.Package[strings.LastIndexByte(ev.Package, '/')+1:]
		switch {
		case ev.Action == "build-output":
			build += ev.Output
		case ev.Action != "fail" && ev.Test == "":
			pkgOutput[pkg] += ev.Output
		case ev.Action != "fail":
		case ev.Test == "":
			pkgFailed[pkg] = true
		case !strings.Contains(ev.Test, "/"):
			kills = append(kills, pkg+"."+ev.Test)
		}
	}
	for pkg := range pkgFailed {
		if !slices.ContainsFunc(kills, func(k string) bool { return strings.HasPrefix(k, pkg+".") }) {
			t.Fatalf("package %s failed outside any test:\n%s%s%s", pkg, build, pkgOutput[pkg], stderr.String())
		}
	}
	slices.Sort(kills)
	return slices.Compact(kills)
}
