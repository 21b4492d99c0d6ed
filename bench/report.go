package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (exclusive method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// stat summarises the samples of one timing.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarise(xs []float64) stat {
	q1, q3 := quartiles(xs)
	return stat{median(xs), q1, q3, len(xs)}
}

// workloadSummary is everything measured for one workload.
type workloadSummary struct {
	Name      string             `json:"name"`
	EndToEnd  map[string]stat    `json:"end_to_end"`
	Ops       map[string]stat    `json:"op_wall_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailRatio float64            `json:"fail_ratio"`
	CheckedBy string             `json:"checked_against"`
	LateS     []float64          `json:"rep_start_lag_s"`
	PerLayer  map[string]float64 `json:"per_layer"`
	Notes     []string           `json:"failures,omitempty"`
}

type summary struct {
	Seed      uint64            `json:"seed"`
	Scale     string            `json:"scale"`
	Nproc     int               `json:"nproc"`
	Workloads []workloadSummary `json:"workloads"`
	// Claim stays null: defining the benchmark claims no gain.
	Claim *string `json:"claim"`
}

// fullRun measures the given workloads: reps timed repetitions each,
// interleaved round-robin so host drift lands on all of them alike, with
// tracing off; then the traced run per workload.
func fullRun(ws []workload, opt options, reps int) (*summary, error) {
	if reps < 2 {
		return nil, fmt.Errorf("-reps %d: need at least 2", reps)
	}
	checkers := make([]*checker, len(ws))
	results := make([][]repResult, len(ws))
	for i := range ws {
		c, err := newChecker(&ws[i], opt)
		if err != nil {
			return nil, err
		}
		checkers[i] = c
	}
	for r := 0; r < reps; r++ {
		for i := range ws {
			res, err := runRep(&ws[i], opt, "timed")
			checkers[i].add(res, err)
			if err == nil {
				results[i] = append(results[i], res)
			}
			fmt.Fprintf(os.Stderr, "%s rep %d/%d: wall %.3fs, started %.3fs after the previous repetition ended\n",
				ws[i].name, r+1, reps, res.WallS, res.LateS)
		}
	}
	sum := &summary{Seed: opt.seed, Scale: opt.scale(), Nproc: workers()}
	for i := range ws {
		c := checkers[i]
		layer, err := tracedRun(&ws[i], opt, c)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		out := workloadSummary{Name: ws[i].name, EndToEnd: map[string]stat{}, Ops: map[string]stat{},
			Attempted: c.attempted, Failed: c.failed, FailRatio: ratio(float64(c.failed), float64(c.attempted)),
			CheckedBy: c.basis, PerLayer: layer, Notes: c.notes}
		for _, d := range endToEnd {
			out.EndToEnd[d.Name] = summarise(column(results[i], d.Name))
		}
		opWalls := map[string][]float64{}
		for _, res := range results[i] {
			out.LateS = append(out.LateS, res.LateS)
			for _, op := range res.Ops {
				opWalls[op.Name] = append(opWalls[op.Name], op.WallS)
			}
		}
		for name, xs := range opWalls {
			out.Ops[name] = summarise(xs)
		}
		sum.Workloads = append(sum.Workloads, out)
	}
	return sum, nil
}

func (s *summary) failed() int {
	n := 0
	for _, w := range s.Workloads {
		n += w.Failed
	}
	return n
}

// print writes every metric by name with its unit.
func (s *summary) print(out io.Writer) {
	for _, w := range s.Workloads {
		fmt.Fprintf(out, "\n== %s (seed %d, scale %s) ==\n", w.Name, s.Seed, s.Scale)
		fmt.Fprintf(out, "%-34s %14s %14s %14s %4s  %s\n", "end-to-end metric", "median", "q1", "q3", "n", "unit")
		for _, d := range endToEnd {
			st := w.EndToEnd[d.Name]
			fmt.Fprintf(out, "%-34s %14.4f %14.4f %14.4f %4d  %s\n", d.Name, st.Median, st.Q1, st.Q3, st.N, d.Unit)
		}
		fmt.Fprintf(out, "%-34s %14.4f %14s %14s %4s  ratio (%d failed / %d attempted; checked against %s)\n",
			"fail_ratio", w.FailRatio, "", "", "", w.Failed, w.Attempted, w.CheckedBy)
		if n := w.EndToEnd["wall_s"].N; n < 20 {
			fmt.Fprintf(out, "(n=%d samples: quartiles only, no higher percentile is supported)\n", n)
		}
		names := make([]string, 0, len(w.Ops))
		for name := range w.Ops {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			st := w.Ops[name]
			fmt.Fprintf(out, "%-34s %14.4f %14.4f %14.4f %4d  s\n", "op "+name+" wall_s", st.Median, st.Q1, st.Q3, st.N)
		}
		for _, n := range w.Notes {
			fmt.Fprintf(out, "FAILED: %s\n", n)
		}
		if w.PerLayer == nil {
			continue
		}
		fmt.Fprintf(out, "%-34s %14s  %s\n", "per-layer metric (traced run)", "value", "unit")
		for _, d := range perLayer {
			note := ""
			if d.Name == "obs.overhead_pct" && w.PerLayer["obs.overhead_spread_pct"] > math.Abs(w.PerLayer[d.Name]) {
				note = "  unresolved: spread exceeds the value"
			}
			fmt.Fprintf(out, "%-34s %14.6g  %s%s\n", d.Name, w.PerLayer[d.Name], d.Unit, note)
		}
	}
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(out, "\n%s\n", b)
}

func (s *summary) writeJSON() error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "summary.json"), append(b, '\n'), 0o644)
}

// exactLayer are the per-layer metrics that are deterministic counts: two
// runs of one commit must agree on them bit for bit.
var exactLayer = []string{
	"sim.events", "sim.heap_high_water", "sim.cohort_mean",
	"medium.transmissions", "medium.fanout_candidates", "medium.fanout_per_tx",
	"medium.fanout_useful_ratio", "medium.link_cache_hit_ratio", "medium.link_cache_misses",
	"medium.grid_migrations", "medium.rx_error_ratio",
	"mac.data_tx", "mac.retry_ratio", "mac.ack_timeouts", "mac.msdu_dropped", "mac.queue_drops", "mac.backoff_slots",
	"net80211.scans", "net80211.auth_attempts", "net80211.roams", "net80211.handoffs", "net80211.decrypt_errors",
	"traffic.offered", "traffic.refused", "traffic.delivery_ratio", "traffic.goodput_bps", "traffic.latency_mean_ms",
	"analytical.bianchi_err_pct", "harness.points",
}

// selfCheck runs the full benchmark twice back to back and fails unless
// the two sets of medians agree within the benchmark's own bounds.
func selfCheck(ws []workload, opt options, reps int) error {
	printHost("start")
	var runs [2]*summary
	for i := range runs {
		s, err := fullRun(ws, opt, reps)
		if err != nil {
			return err
		}
		runs[i] = s
	}
	printHost("end")
	bad := 0
	fmt.Printf("| workload | metric | run 1 median | run 2 median | difference | bound |\n|---|---|---|---|---|---|\n")
	for i, a := range runs[0].Workloads {
		b := runs[1].Workloads[i]
		for _, d := range endToEnd {
			x, y := a.EndToEnd[d.Name].Median, b.EndToEnd[d.Name].Median
			diff := math.Abs(x-y) / math.Min(x, y)
			verdict := ""
			if !(diff <= d.Bound) {
				verdict = " EXCEEDED"
				bad++
			}
			fmt.Printf("| %s | %s | %.4f %s | %.4f %s | %.1f %%%s | %.0f %% |\n",
				a.Name, d.Name, x, d.Unit, y, d.Unit, 100*diff, verdict, 100*d.Bound)
		}
		if a.Failed+b.Failed > 0 {
			fmt.Printf("| %s | fail_ratio | %.4f | %.4f | must be 0 EXCEEDED | 0 |\n", a.Name, a.FailRatio, b.FailRatio)
			bad++
		}
		var drift []string
		for _, name := range exactLayer {
			if a.PerLayer[name] != b.PerLayer[name] {
				drift = append(drift, name)
			}
		}
		if len(drift) > 0 {
			fmt.Printf("| %s | exact counts | | | differ: %s EXCEEDED | 0 |\n", a.Name, strings.Join(drift, " "))
			bad++
		} else {
			fmt.Printf("| %s | exact counts (%d) | | | bit-equal | 0 |\n", a.Name, len(exactLayer))
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d comparison(s) outside the bounds", bad)
	}
	return nil
}

// regenerate rewrites the expected outputs: one repetition per simulation
// workload at seed 1 for the digests, and the suite CSV evaluated point by
// point in this process.
func regenerate(opt options) error {
	if opt.seed != 1 || opt.tiny {
		return fmt.Errorf("-regen pins -seed 1 -scale full")
	}
	old := map[string]map[string]string{}
	if b, err := os.ReadFile(expectedJSON); err == nil {
		if err := json.Unmarshal(b, &old); err != nil {
			fmt.Fprintf(os.Stderr, "bench: ignoring unreadable %s: %v\n", expectedJSON, err)
		}
	}
	changed := 0
	fresh := map[string]map[string]string{}
	for i := range workloads {
		w := &workloads[i]
		if w.engine != "" {
			continue
		}
		res, err := runRep(w, opt, "timed")
		if err != nil {
			return err
		}
		fresh[w.name] = map[string]string{}
		for _, op := range res.Ops {
			if op.Err != "" {
				return fmt.Errorf("%s/%s: %s", w.name, op.Name, op.Err)
			}
			fresh[w.name][op.Name] = op.Digest
			if old[w.name][op.Name] != op.Digest {
				fmt.Printf("changed: %s/%s\n", w.name, op.Name)
				changed++
			}
		}
	}
	b, err := json.MarshalIndent(fresh, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(expectedJSON, append(b, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.MkdirAll(expectedDir, 0o755); err != nil {
		return err
	}
	for _, id := range suiteIDs {
		csv, _, _ := sequentialCSV(id, false)
		path := filepath.Join(expectedDir, id+".csv")
		if prev, err := os.ReadFile(path); err != nil || string(prev) != string(csv) {
			fmt.Printf("changed: %s\n", path)
			changed++
		}
		if err := os.WriteFile(path, csv, 0o644); err != nil {
			return err
		}
	}
	fmt.Printf("regenerated %s and %d CSV file(s): %d output(s) changed\n", expectedJSON, len(suiteIDs), changed)
	return nil
}
