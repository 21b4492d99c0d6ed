package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/net80211"
	"repro/internal/sim"
	"repro/internal/trace"
)

// asMainEnv makes the test binary behave as the wlantrace command, so the
// tests need no second build.
const asMainEnv = "WLANTRACE_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// wlantrace runs the command and returns its stdout.
func wlantrace(t *testing.T, args ...string) string {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("wlantrace %v: %v\n%s", args, err, stderr.String())
	}
	return string(out)
}

// simTrace writes what `wlansim -topology infra -n 2 -trace` writes for a
// short run: an association second, then 50 ms of two saturated uplinks.
func simTrace(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	net := core.NewNetwork(core.Config{Seed: 1, Mode: "802.11b", Tracer: trace.JSONL{W: f}})
	ap := net.AddAP("ap", geom.Pt(0, 0), net80211.APConfig{SSID: "wlansim"})
	pts := geom.Circle(2, 10, geom.Pt(0, 0))
	var stas []*core.Node
	for i, p := range pts {
		stas = append(stas, net.AddStation(fmt.Sprintf("sta%d", i), p, net80211.STAConfig{SSID: "wlansim"}))
	}
	net.Run(sim.Second)
	for _, s := range stas {
		net.Saturate(s, ap, 1500)
	}
	net.Run(50 * sim.Millisecond)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// traceKinds reads the trace independently of the command: the kind of
// every event, and of the events node emitted.
func traceKinds(t *testing.T, path, node string) (all, ofNode []string) {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(src)), "\n") {
		var ev struct{ Node, Kind string }
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		all = append(all, ev.Kind)
		if ev.Node == node {
			ofNode = append(ofNode, ev.Kind)
		}
	}
	return all, ofNode
}

// summaryTable is the -summary table for kinds: every known kind in
// trace.Kinds order, "other" only when some kind is unknown, then the
// total.
func summaryTable(kinds []string) string {
	n := map[string]int{}
	for _, k := range kinds {
		n[k]++
	}
	var b strings.Builder
	known := 0
	for _, k := range trace.Kinds {
		fmt.Fprintf(&b, "%-8s %d\n", k, n[string(k)])
		known += n[string(k)]
	}
	if other := len(kinds) - known; other > 0 {
		fmt.Fprintf(&b, "%-8s %d\n", "other", other)
	}
	fmt.Fprintf(&b, "%-8s %d\n", "total", len(kinds))
	return b.String()
}

// TestSecondArgumentRefused: flag.Parse stops at the trace file, so flags
// after it, or a second file, are one line on stderr and exit status 2
// instead of being dropped.
func TestSecondArgumentRefused(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{path, "-summary"}, {path, path}} {
		cmd := exec.Command(self, args...)
		cmd.Env = append(os.Environ(), asMainEnv+"=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("wlantrace %v: %v, want exit status 2", args, err)
			continue
		}
		if lines := strings.Count(stderr.String(), "\n"); lines != 1 || stdout.Len() != 0 {
			t.Errorf("wlantrace %v: stdout %q, stderr %q; want one line on stderr only", args, stdout.String(), stderr.String())
		}
	}
}

// TestSummaryOfSimTrace: -summary counts every event of a simulator
// trace by kind, alone and under -node.
func TestSummaryOfSimTrace(t *testing.T) {
	path := simTrace(t)
	all, sta0 := traceKinds(t, path, "sta0")
	for _, k := range []string{"tx", "rx-ok", "mgmt"} {
		if !slices.Contains(all, k) {
			t.Fatalf("trace holds no %s event; the scenario no longer covers it", k)
		}
	}
	if got, want := wlantrace(t, "-summary", path), summaryTable(all); got != want {
		t.Errorf("-summary:\n%s\nwant\n%s", got, want)
	}
	if got, want := wlantrace(t, "-summary", "-node", "sta0", path), summaryTable(sta0); got != want {
		t.Errorf("-summary -node sta0:\n%s\nwant\n%s", got, want)
	}
}

// TestFilterSimTrace: -node and -kind keep exactly the matching events,
// one line each.
func TestFilterSimTrace(t *testing.T) {
	path := simTrace(t)
	_, sta0 := traceKinds(t, path, "sta0")
	want := 0
	for _, k := range sta0 {
		if k == "rx-ok" {
			want++
		}
	}
	if want == 0 {
		t.Fatal("sta0 received nothing in the trace")
	}
	out := wlantrace(t, "-node", "sta0", "-kind", "rx-ok", path)
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != want {
		t.Fatalf("-node sta0 -kind rx-ok printed %d lines, want %d", len(lines), want)
	}
	for _, l := range lines {
		if f := strings.Fields(l); len(f) < 3 || f[1] != "sta0" || f[2] != "rx-ok" {
			t.Fatalf("filtered line %q is not an rx-ok event of sta0", l)
		}
	}
}

// TestPinnedOutput pins the exact bytes of both modes on a hand-written
// trace with an unknown kind, a blank line and a malformed line.
func TestPinnedOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	src := `{"at_ns":50000,"node":"sta0","kind":"tx","type":"data","ra":"02:00:00:00:00:02","ta":"02:00:00:00:00:01","seq":7,"len":436,"detail":"rate=11 Mbit/s"}
{"at_ns":560000,"node":"ap","kind":"rx-ok","type":"data","ra":"02:00:00:00:00:02","ta":"02:00:00:00:00:01","seq":7,"len":436,"detail":"rssi=-63.1 dBm"}

{broken
{"at_ns":900000,"node":"ap","kind":"beacon-lost"}
{"at_ns":1000000,"node":"sta0","kind":"mgmt","detail":"associated"}
`
	if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-summary"}, "tx       1\nrx-ok    1\nrx-err   0\nmgmt     1\nroam     0\nps       0\nother    1\ntotal    4\n"},
		{[]string{"-summary", "-kind", "rx-ok"}, "tx       0\nrx-ok    1\nrx-err   0\nmgmt     0\nroam     0\nps       0\ntotal    1\n"},
		{[]string{"-node", "sta0"}, "      0.000050s sta0       tx     data        ra=02:00:00:00:00:02 seq=7    len=436  rate=11 Mbit/s\n" +
			"      0.001000s sta0       mgmt               ra=                  seq=0    len=0    associated\n"},
		{[]string{"-kind", "rx-ok"}, "      0.000560s ap         rx-ok  data        ra=02:00:00:00:00:02 seq=7    len=436  rssi=-63.1 dBm\n"},
	}
	for _, c := range cases {
		if got := wlantrace(t, append(c.args, path)...); got != c.want {
			t.Errorf("wlantrace %v:\n%q\nwant\n%q", c.args, got, c.want)
		}
	}
}
