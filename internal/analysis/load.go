package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path       string
	Fset       *token.FileSet
	Syntax     []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
	Directives []Directive
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load lists patterns (go list syntax, e.g. ./...) from dir, parses and
// type-checks every matched package from source against its imports'
// export data, and returns them ready for RunAnalyzers. One `go list
// -deps -export` call names every package and its export file, and the
// packages of one Load share one FileSet. The testdata fixtures load the
// same way: go list skips testdata directories under ./... but accepts one
// named explicitly (./internal/analysis/testdata/determinism/sim). Test
// files are excluded: the contracts wlanlint enforces protect the
// simulation data paths, and tests exercise them through the runtime walls
// instead.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,DepOnly,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	exports := map[string]string{}
	var roots []listedPackage
	for dec := json.NewDecoder(&out); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && len(p.GoFiles) > 0 {
			roots = append(roots, p)
		}
	}
	fset := token.NewFileSet()
	exportLookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	imp := importer.ForCompiler(fset, "gc", exportLookup)
	pkgs := make([]*Package, 0, len(roots))
	for _, root := range roots {
		pkg, err := typecheck(fset, imp, root)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// typecheck reads, parses and type-checks one listed package, collecting
// its //wlan: directives on the way.
func typecheck(fset *token.FileSet, imp types.Importer, p listedPackage) (*Package, error) {
	pkg := &Package{
		Path: p.ImportPath,
		Fset: fset,
		TypesInfo: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
	}
	for _, name := range p.GoFiles {
		name = filepath.Join(p.Dir, name)
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Syntax = append(pkg.Syntax, f)
		pkg.Directives = append(pkg.Directives, fileDirectives(fset, f, src)...)
	}
	// With no Error callback, Check stops at and returns the first error.
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	var err error
	if pkg.Types, err = conf.Check(p.ImportPath, fset, pkg.Syntax, pkg.TypesInfo); err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", p.ImportPath, err)
	}
	return pkg, nil
}
