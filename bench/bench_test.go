package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// asMainEnv makes the test binary behave as the bench command, so the
// smoke test (and the repetitions it re-execs) need no second build.
const asMainEnv = "BENCH_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// bench runs the command from the repository root and returns its stdout.
func bench(t *testing.T, args ...string) []byte {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, args...)
	cmd.Dir = ".."
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("bench %v: %v\n%s", args, err, stderr.String())
	}
	return out
}

func lastLine(b []byte) []byte {
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	return lines[len(lines)-1]
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifest pins BENCHMARK.json to the tables in main.go and to the
// limits of the benchmark contract.
func TestManifest(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifest()) {
		t.Error("BENCHMARK.json differs from `go run ./bench -manifest`")
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d end-to-end, %d per-layer, %d workloads: outside the contract's limits",
			len(endToEnd), len(perLayer), len(workloads))
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	for _, d := range perLayer {
		check(d.Name)
	}
	for _, d := range endToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestChecker: a corrupted expected digest, a conservation error and a
// repetition that could not run each count as failed operations.
func TestChecker(t *testing.T) {
	w := workloadByName("roaming-wave")
	good := repResult{Ops: []opResult{{Name: "open", Digest: "aa"}, {Name: "wep", Digest: "bb"}}}

	c := &checker{w: w}
	c.add(good, nil)
	c.add(good, nil)
	if c.attempted != 4 || c.failed != 0 {
		t.Errorf("repeating digests: attempted %d failed %d, want 4 and 0", c.attempted, c.failed)
	}
	drifted := repResult{Ops: []opResult{{Name: "open", Digest: "aa"}, {Name: "wep", Digest: "cc"}}}
	c.add(drifted, nil)
	if c.failed != 1 {
		t.Errorf("digest that differs between repetitions: failed %d, want 1", c.failed)
	}

	c = &checker{w: w, want: map[string]string{"open": "aa", "wep": "corrupted"}}
	c.add(good, nil)
	if c.failed != 1 || c.attempted != 2 {
		t.Errorf("corrupted expected digest: attempted %d failed %d, want 2 and 1", c.attempted, c.failed)
	}

	c = &checker{w: w}
	c.add(repResult{Ops: []opResult{{Name: "open", Digest: "aa", Err: "flow 1 delivered 9 of 8"}, {Name: "wep", Digest: "bb"}}}, nil)
	c.add(repResult{}, os.ErrDeadlineExceeded)
	if c.failed != 3 || c.attempted != 4 {
		t.Errorf("conservation error + crashed repetition: attempted %d failed %d, want 4 and 3", c.attempted, c.failed)
	}
}

func TestQuartiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) → [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

// TestSmoke runs every workload at -scale tiny: two timed repetitions and
// the traced run each, then one driver-contract run of each kind.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/experiments and spawns repetitions")
	}
	var sum summary
	if err := json.Unmarshal(lastLine(bench(t, "-scale", "tiny", "-reps", "2")), &sum); err != nil {
		t.Fatalf("summary line: %v", err)
	}
	if sum.Claim != nil || len(sum.Workloads) != len(workloads) {
		t.Fatalf("summary: claim %v, %d workloads", sum.Claim, len(sum.Workloads))
	}
	for _, w := range sum.Workloads {
		if w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, w.Failed, w.Attempted, w.Notes)
		}
		for _, d := range endToEnd {
			if st := w.EndToEnd[d.Name]; st.N != 2 || !(st.Median > 0) || math.IsInf(st.Median, 0) {
				t.Errorf("%s: %s = %+v, want 2 positive finite samples", w.Name, d.Name, st)
			}
		}
		if len(w.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.Name, len(w.PerLayer), len(perLayer))
		}
		for _, d := range perLayer {
			if v, ok := w.PerLayer[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer metric %s = %v (present %v)", w.Name, d.Name, v, ok)
			}
		}
		if other := w.PerLayer["trace.other_pct"]; other >= 1 {
			t.Errorf("%s: %.2f %% of traced time in unnamed event classes", w.Name, other)
		}
		if sim := workloadByName(w.Name).engine == ""; sim && w.PerLayer["trace.attributed_pct"] < 99 {
			t.Errorf("%s: only %.2f %% of traced time attributed to named layers", w.Name, w.PerLayer["trace.attributed_pct"])
		}
	}

	type result struct {
		Correct   *bool `json:"correct"`
		Attempted int   `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	e2e := make([]metricDef, len(endToEnd))
	for i, d := range endToEnd {
		e2e[i] = d.metricDef
	}
	for trace, defs := range map[string][]metricDef{"0": e2e, "1": perLayer} {
		out := lastLine(bench(t, "--workload", "roaming-wave", "--seed", "7", "--seconds", "1", "--trace", trace, "-scale", "tiny"))
		var top map[string]json.RawMessage
		var r result
		if err := json.Unmarshal(out, &top); err != nil {
			t.Fatalf("--trace %s: last line is not JSON: %v\n%s", trace, err, out)
		}
		if err := json.Unmarshal(out, &r); err != nil {
			t.Fatal(err)
		}
		if len(top) != 4 || r.Correct == nil || !*r.Correct || r.Failed == nil || *r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("--trace %s: result %s", trace, out)
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("--trace %s: %d metrics, want %d", trace, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := r.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("--trace %s: metric %s = %+v", trace, d.Name, m)
			}
		}
	}
}
