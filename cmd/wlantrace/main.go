// Command wlantrace pretty-prints JSONL frame traces produced by
// wlansim -trace (or any trace.JSONL writer): one aligned line per event
// with relative timestamps, with optional node and kind filters. With
// -summary it suppresses per-event output and prints a per-kind count
// table instead, tallied in a per-kind map — the stream is never
// buffered, so arbitrarily large traces summarize in constant memory.
//
// Usage:
//
//	wlantrace trace.jsonl
//	wlansim -trace /dev/stdout | wlantrace -node sta0 -kind rx-ok
//	wlantrace -summary trace.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/trace"
)

func main() {
	var (
		nodeFilter = flag.String("node", "", "only events from this node")
		kindFilter = flag.String("kind", "", "only events of this kind (tx, rx-ok, rx-err, ...)")
		summary    = flag.Bool("summary", false, "print a per-kind count table instead of per-event lines")
	)
	flag.Parse()
	if flag.NArg() > 1 { // flag.Parse stops at the file: later flags would be dropped
		fmt.Fprintf(os.Stderr, "wlantrace: %d arguments: want at most one trace file, after every flag\n", flag.NArg())
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "wlantrace:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}

	counts := map[trace.Kind]uint64{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo, shown := 0, 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			fmt.Fprintf(os.Stderr, "wlantrace: line %d: %v\n", lineNo, err)
			continue
		}
		node, _ := m["node"].(string)
		kind, _ := m["kind"].(string)
		if *nodeFilter != "" && node != *nodeFilter {
			continue
		}
		if *kindFilter != "" && kind != *kindFilter {
			continue
		}
		if *summary {
			counts[trace.Kind(kind)]++
			shown++
			continue
		}
		atNs, _ := m["at_ns"].(float64)
		typ, _ := m["type"].(string)
		ra, _ := m["ra"].(string)
		seq, _ := m["seq"].(float64)
		length, _ := m["len"].(float64)
		detail, _ := m["detail"].(string)
		fmt.Printf("%14.6fs %-10s %-6s %-11s ra=%-17s seq=%-4.0f len=%-4.0f %s\n",
			atNs/1e9, node, kind, typ, ra, seq, length, detail)
		shown++
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "wlantrace:", err)
		os.Exit(1)
	}
	if *summary {
		other := uint64(shown)
		for _, k := range trace.Kinds {
			fmt.Printf("%-8s %d\n", k, counts[k])
			other -= counts[k]
		}
		if other > 0 {
			fmt.Printf("%-8s %d\n", "other", other)
		}
		fmt.Printf("%-8s %d\n", "total", shown)
	}
	fmt.Fprintf(os.Stderr, "wlantrace: %d events shown of %d lines\n", shown, lineNo)
}
