// Command wlanlint runs the repo's static-contract analyzers (see
// internal/analysis): retainview, determinism and hotpathalloc. It exits
// non-zero when any contract is violated, so CI and pre-commit hooks can
// gate on it:
//
//	go run ./cmd/wlanlint ./...
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: wlanlint packages...\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, err := analysis.Load(wd, patterns...)
	if err != nil {
		fatal(err)
	}
	diags, err := analysis.RunAnalyzers(pkgs, analysis.All())
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		pos := pkgs[0].Fset.Position(d.Pos)
		fmt.Printf("%s: %s: %s\n", pos, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "wlanlint: %d contract violation(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "wlanlint: %v\n", err)
	os.Exit(2)
}
