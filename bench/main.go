// Command bench is the repository benchmark (see README.md in this
// directory and BENCHMARK.json at the repository root). Run it from the
// repository root:
//
//	go run ./bench                                  # every workload, tables + JSON summary
//	go run ./bench -workload city-grid -reps 7      # one workload
//	go run ./bench -selfcheck                       # twice back to back, noise floor
//	go run ./bench -regen                           # rewrite expected outputs
//	go run ./bench --workload W --seed N --seconds S --trace 0|1   # one driver run
//
// BENCHMARK.json's command is run.sh, which is `go run ./bench` with the Go
// build cache kept inside the checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	outDir       = "bench/out"
	expectedJSON = "bench/expected.json"
	expectedDir  = "bench/expected"
	startEnv     = "BENCH_START_NS"
)

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// boundedDef is an end-to-end metric: Bound is the share of the parent's
// median by which it may worsen before a change is a regression.
type boundedDef struct {
	metricDef
	Bound float64 `json:"bound"`
}

// endToEnd are what a user of the simulator sees: host seconds, CPU and
// memory for a fixed, byte-identical simulated result. fail_ratio is not a
// metric here because it must stay 0: it is the failed/attempted pair of
// every result line. The bounds are the widest the contract allows: across
// ten seeds city-grid's wall_s spreads 5–7 % between quartiles on a shared
// 2-core host (setup_s up to 8 %), and a bound should be three times the
// spread seen.
var endToEnd = []boundedDef{
	{metricDef{"wall_s", "s", "lower"}, 0.25},
	{metricDef{"cpu_s", "s", "lower"}, 0.25},
	{metricDef{"peak_rss_mib", "MiB", "lower"}, 0.25},
	{metricDef{"setup_s", "s", "lower"}, 0.25},
}

// perLayer names every per-layer metric, layer first. Counts marked exact
// in the README repeat bit for bit at a fixed seed.
var perLayer = []metricDef{
	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.heap_high_water", "count", "lower"},
	{"sim.cohort_mean", "count", "higher"},
	{"sim.probe_ns_per_event", "ns", "lower"},
	{"medium.transmissions", "count", "lower"},
	{"medium.fanout_candidates", "count", "lower"},
	{"medium.fanout_per_tx", "count", "lower"},
	{"medium.fanout_useful_ratio", "ratio", "higher"},
	{"medium.link_cache_hit_ratio", "ratio", "higher"},
	{"medium.link_cache_hit_ratio_dense", "ratio", "higher"},
	{"medium.link_cache_hit_ratio_sparse", "ratio", "higher"},
	{"medium.link_cache_misses", "count", "lower"},
	{"medium.grid_migrations", "count", "lower"},
	{"medium.rx_error_ratio", "ratio", "lower"},
	{"medium.ev_events", "count", "lower"},
	{"medium.ev_s", "s", "lower"},
	{"medium.self_s", "s", "lower"},
	{"medium.transmit_probe_ns", "ns", "lower"},
	{"phy.chunk_success_probe_ns", "ns", "lower"},
	{"phy.airtime_probe_ns", "ns", "lower"},
	{"mac.data_tx", "count", "lower"},
	{"mac.retry_ratio", "ratio", "lower"},
	{"mac.ack_timeouts", "count", "lower"},
	{"mac.msdu_dropped", "count", "lower"},
	{"mac.queue_drops", "count", "lower"},
	{"mac.backoff_slots", "count", "lower"},
	{"mac.ev_events", "count", "lower"},
	{"mac.ev_s", "s", "lower"},
	{"mac.rx_callback_s", "s", "lower"},
	{"rate.decision_probe_ns", "ns", "lower"},
	{"rate.decision_probe_ns_arf", "ns", "lower"},
	{"rate.decision_probe_ns_aarf", "ns", "lower"},
	{"rate.decision_probe_ns_samplerate", "ns", "lower"},
	{"rate.decision_probe_ns_minstrel", "ns", "lower"},
	{"frame.append_wire_probe_ns", "ns", "lower"},
	{"frame.unmarshal_into_probe_ns", "ns", "lower"},
	{"wep.seal_probe_ns", "ns", "lower"},
	{"wep.open_probe_ns", "ns", "lower"},
	{"net80211.scans", "count", "lower"},
	{"net80211.auth_attempts", "count", "lower"},
	{"net80211.roams", "count", "higher"},
	{"net80211.handoffs", "count", "higher"},
	{"net80211.decrypt_errors", "count", "lower"},
	{"net80211.ev_events", "count", "lower"},
	{"net80211.ev_s", "s", "lower"},
	{"ether.ev_events", "count", "lower"},
	{"ether.ev_s", "s", "lower"},
	{"traffic.offered", "count", "higher"},
	{"traffic.refused", "count", "lower"},
	{"traffic.delivery_ratio", "ratio", "higher"},
	{"traffic.goodput_bps", "bit/s", "higher"},
	{"traffic.latency_mean_ms", "ms", "lower"},
	{"traffic.ev_events", "count", "lower"},
	{"traffic.ev_s", "s", "lower"},
	{"analytical.bianchi_err_pct", "%", "lower"},
	{"core.build_s", "s", "lower"},
	{"core.allocs", "count", "lower"},
	{"core.alloc_bytes", "B", "lower"},
	{"core.gc_cycles", "count", "lower"},
	{"core.gc_pause_s", "s", "lower"},
	{"obs.overhead_pct", "%", "lower"},
	{"obs.overhead_spread_pct", "%", "lower"},
	{"harness.points", "count", "lower"},
	{"harness.seq_wall_s", "s", "lower"},
	{"harness.critical_path_s", "s", "lower"},
	{"harness.speedup_vs_seq", "ratio", "higher"},
	{"harness.efficiency", "ratio", "higher"},
	{"sweep.overhead_cpu_s", "s", "lower"},
	{"sweep.codec_probe_ns_per_row", "ns", "lower"},
	{"cluster.chunks", "count", "lower"},
	{"cluster.chunk_latency_mean_s", "s", "lower"},
	{"cluster.redispatched", "count", "lower"},
	{"cluster.retries", "count", "lower"},
	{"cluster.heartbeat_rtt_mean_ms", "ms", "lower"},
	{"cluster.agent_points", "count", "higher"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.attributed_pct", "%", "higher"},
	{"trace.other_pct", "%", "lower"},
	{"trace.medium_transmit_est_s", "s", "lower"},
}

// runSeconds is BENCHMARK.json's run_seconds: how long one driver run
// spends on repetitions.
const runSeconds = 15

// manifest renders BENCHMARK.json from the tables above.
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string     `json:"command"`
		Paths      []string     `json:"paths"`
		RunSeconds int          `json:"run_seconds"`
		Workloads  []wl         `json:"workloads"`
		EndToEnd   []boundedDef `json:"end_to_end"`
		PerLayer   []metricDef  `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds,
		EndToEnd: endToEnd, PerLayer: perLayer}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

type options struct {
	seed uint64
	tiny bool
}

func (o options) scale() string {
	if o.tiny {
		return "tiny"
	}
	return "full"
}

func main() {
	var (
		name      = flag.String("workload", "", "run only this workload (default: all)")
		seed      = flag.Uint64("seed", 1, "scenario seed: core.Config.Seed and topology jitter of the simulation workloads")
		seconds   = flag.Int("seconds", 0, "driver mode: repeat for this many seconds and print one JSON result line")
		trace     = flag.Int("trace", 0, "driver mode: 0 = end-to-end metrics (tracing off), 1 = per-layer metrics (traced run + probes)")
		reps      = flag.Int("reps", 5, "timed repetitions per workload")
		scale     = flag.String("scale", "full", "full, or tiny (smoke test only)")
		regen     = flag.Bool("regen", false, "rewrite bench/expected.json and bench/expected/*.csv")
		selfcheck = flag.Bool("selfcheck", false, "run everything twice and compare the two sets of medians")
		printMan  = flag.Bool("manifest", false, "print BENCHMARK.json as this program defines it")
		child     = flag.String("child", "", "internal: run one repetition in this process (timed, traced, obs, seq, metrics)")
	)
	flag.Parse()
	opt := options{seed: *seed, tiny: *scale == "tiny"}
	if *scale != "tiny" && *scale != "full" {
		die(fmt.Errorf("unknown -scale %q", *scale))
	}
	if *printMan {
		os.Stdout.Write(manifest())
		return
	}

	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			die(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []workload{*w}
	}
	if *child != "" {
		runChild(&selected[0], opt, *child)
		return
	}

	if _, err := os.Stat(expectedJSON); err != nil {
		die(fmt.Errorf("%s not found: run from the repository root", expectedJSON))
	}
	for _, w := range selected {
		if w.engine != "" {
			if err := buildExperiments(); err != nil {
				die(err)
			}
			break
		}
	}
	switch {
	case *regen:
		die(regenerate(opt))
	case *seconds > 0:
		if *name == "" {
			die(fmt.Errorf("-seconds needs -workload"))
		}
		die(driverRun(&selected[0], opt, time.Duration(*seconds)*time.Second, *trace == 1))
	case *selfcheck:
		die(selfCheck(selected, opt, *reps))
	default:
		printHost("start")
		sum, err := fullRun(selected, opt, *reps)
		if err == nil {
			sum.print(os.Stdout)
			printHost("end")
			err = sum.writeJSON()
		}
		if err == nil && sum.failed() > 0 {
			err = fmt.Errorf("%d operation(s) failed", sum.failed())
		}
		die(err)
	}
}

func die(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runChild is one repetition: it runs in a fresh process so peak RSS,
// process-wide memo tables and GC state are per repetition.
func runChild(w *workload, opt options, mode string) {
	started := time.Now()
	if ns, err := strconv.ParseInt(os.Getenv(startEnv), 10, 64); err == nil {
		started = time.Unix(0, ns)
	}
	var res repResult
	switch {
	case mode == "seq":
		res = seqRep(opt.tiny)
	case w.engine != "":
		res = suiteRep(w, opt.tiny, mode, started)
	default:
		res = simRep(w, opt.seed, opt.tiny, mode, started)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		die(err)
	}
}

var lastRepEnd time.Time

// runRep re-execs this program for one repetition and reads the child's
// JSON result and rusage, which covers every process the repetition started.
func runRep(w *workload, opt options, mode string) (repResult, error) {
	self, err := os.Executable()
	if err != nil {
		return repResult{}, err
	}
	cmd := exec.Command(self, "-child", mode, "-workload", w.name,
		"-seed", strconv.FormatUint(opt.seed, 10), "-scale", opt.scale())
	cmd.Stderr = os.Stderr
	start := time.Now()
	cmd.Env = append(os.Environ(), startEnv+"="+strconv.FormatInt(start.UnixNano(), 10))
	if os.Getenv("GOMAXPROCS") == "" {
		cmd.Env = append(cmd.Env, "GOMAXPROCS="+strconv.Itoa(workers()))
	}
	out, err := cmd.Output()
	var late float64
	if !lastRepEnd.IsZero() {
		late = start.Sub(lastRepEnd).Seconds()
	}
	lastRepEnd = time.Now()
	var res repResult
	if err != nil {
		return res, fmt.Errorf("%s repetition (%s): %w", w.name, mode, err)
	}
	if err := json.Unmarshal(out, &res); err != nil {
		return res, fmt.Errorf("%s repetition (%s): bad result: %w", w.name, mode, err)
	}
	res.LateS = late
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.CPUS = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		res.RSSMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return res, nil
}

// opCount is how many operations one repetition of w attempts.
func opCount(w *workload) int {
	if w.engine != "" {
		return len(suiteIDs)
	}
	return len(w.ops)
}

// checker counts operations attempted and failed for one workload and
// holds the digests every repetition must reproduce.
type checker struct {
	w         *workload
	want      map[string]string // op → digest; nil = first repetition defines it
	basis     string            // what the digests are checked against
	attempted int
	failed    int
	notes     []string
}

func newChecker(w *workload, opt options) (*checker, error) {
	c := &checker{w: w, basis: "conservation and repeat-determinism only (expected outputs are pinned at -seed 1 -scale full)"}
	switch {
	case w.engine != "":
		c.want, c.basis = map[string]string{}, "committed "+expectedDir+"/*.csv"
		if opt.tiny {
			c.basis = "quick-mode CSV evaluated in-process"
		}
		for _, id := range suiteIDs {
			if opt.tiny {
				csv, _, _ := sequentialCSV(id, true)
				c.want[id] = sha(csv)
				continue
			}
			b, err := os.ReadFile(filepath.Join(expectedDir, id+".csv"))
			if err != nil {
				return nil, err
			}
			c.want[id] = sha(b)
		}
	case opt.seed == 1 && !opt.tiny:
		all := map[string]map[string]string{}
		b, err := os.ReadFile(expectedJSON)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(b, &all); err != nil {
			return nil, fmt.Errorf("%s: %w", expectedJSON, err)
		}
		c.want, c.basis = all[w.name], "committed "+expectedJSON
	}
	return c, nil
}

// add checks one repetition. A repetition that could not run fails every
// operation it would have attempted.
func (c *checker) add(res repResult, err error) {
	n := opCount(c.w)
	c.attempted += n
	if err != nil {
		c.failed += n
		c.notes = append(c.notes, err.Error())
		return
	}
	if c.want == nil {
		c.want = map[string]string{}
		for _, op := range res.Ops {
			c.want[op.Name] = op.Digest
		}
	}
	bad := n - len(res.Ops) // ops that never ran
	for _, op := range res.Ops {
		switch {
		case op.Err != "":
			c.notes = append(c.notes, fmt.Sprintf("%s/%s: %s", c.w.name, op.Name, op.Err))
		case op.Digest != c.want[op.Name]:
			c.notes = append(c.notes, fmt.Sprintf("%s/%s: digest %.12s differs from %.12s", c.w.name, op.Name, op.Digest, c.want[op.Name]))
		default:
			continue
		}
		bad++
	}
	if bad > n {
		bad = n
	}
	c.failed += bad
}

// tracedRun is the per-layer measurement of one workload: a plain
// repetition, the traced one (spans + probes; for the suite, the in-process
// per-point timing), and the extra repetitions obs.* and cluster.* need.
func tracedRun(w *workload, opt options, c *checker) (map[string]float64, error) {
	plain, err := runRep(w, opt, "timed")
	c.add(plain, err)
	if err != nil {
		return nil, err
	}
	mode := "traced"
	if w.engine != "" {
		mode = "seq"
	}
	traced, err := runRep(w, opt, mode)
	c.add(traced, err)
	if err != nil {
		return nil, err
	}
	layer := traced.Layer
	if w.engine == "" {
		layer["sim.ns_per_event"] = ratio(plain.WallS*1e9, plain.Layer["sim.events"])
		layer["trace.overhead_ratio"] = ratio(traced.WallS, plain.WallS)
	} else {
		seq := layer["harness.seq_wall_s"]
		layer["harness.speedup_vs_seq"] = ratio(seq, plain.WallS)
		layer["harness.efficiency"] = ratio(seq, plain.WallS*float64(workers()))
		layer["sweep.overhead_cpu_s"] = plain.CPUS - layer["harness.seq_cpu_s"]
	}
	if w.engine == "agents" {
		met, err := runRep(w, opt, "metrics")
		c.add(met, err)
		if err != nil {
			return nil, err
		}
		for k, v := range met.Layer {
			layer[k] = v
		}
	}
	if w.obsAB {
		// Paired plain/obs repetitions, interleaved; the plain one above
		// is the first pair's base.
		const pairs = 3
		var ratios []float64
		for i := 0; i < pairs; i++ {
			if i > 0 {
				plain, err = runRep(w, opt, "timed")
				c.add(plain, err)
				if err != nil {
					return nil, err
				}
			}
			withObs, err := runRep(w, opt, "obs")
			c.add(withObs, err)
			if err != nil {
				return nil, err
			}
			ratios = append(ratios, ratio(withObs.WallS, plain.WallS))
		}
		sort.Float64s(ratios)
		layer["obs.overhead_pct"] = 100 * (median(ratios) - 1)
		layer["obs.overhead_spread_pct"] = 100 * (ratios[len(ratios)-1] - ratios[0])
	}
	named := make(map[string]float64, len(perLayer)) // drop the raw sums behind the ratios
	for _, d := range perLayer {
		named[d.Name] = layer[d.Name]
	}
	return named, nil
}

// driverRun is one run of the driver contract: repetitions for the given
// time, then one JSON object as the last line of standard output.
func driverRun(w *workload, opt options, budget time.Duration, trace bool) error {
	printHost("start")
	c, err := newChecker(w, opt)
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if trace {
		layer, err := tracedRun(w, opt, c)
		if err != nil {
			return err
		}
		for _, d := range perLayer {
			metrics[d.Name] = value{layer[d.Name], d.Unit}
		}
	} else {
		start := time.Now()
		var rs []repResult
		// Closed loop, one client: a repetition starts when the previous
		// one returns, while a whole one still fits the budget.
		for len(rs) < 3 || time.Since(start)+time.Since(start)/time.Duration(len(rs)) <= budget {
			res, err := runRep(w, opt, "timed")
			c.add(res, err)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "rep %d: setup %.3fs wall %.3fs cpu %.3fs rss %.1fMiB started %.3fs after previous\n",
				len(rs)+1, res.SetupS, res.WallS, res.CPUS, res.RSSMiB, res.LateS)
			rs = append(rs, res)
		}
		for _, d := range endToEnd {
			metrics[d.Name] = value{median(column(rs, d.Name)), d.Unit}
		}
	}
	for _, n := range c.notes {
		fmt.Fprintln(os.Stderr, "FAILED:", n)
	}
	fmt.Fprintf(os.Stderr, "outputs checked against %s\n", c.basis)
	printHost("end")
	return json.NewEncoder(os.Stdout).Encode(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{c.failed == 0, c.attempted, c.failed, metrics})
}

// column extracts one end-to-end metric from a set of repetitions.
func column(rs []repResult, name string) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		switch name {
		case "wall_s":
			xs[i] = r.WallS
		case "cpu_s":
			xs[i] = r.CPUS
		case "peak_rss_mib":
			xs[i] = r.RSSMiB
		case "setup_s":
			xs[i] = r.SetupS
		}
	}
	return xs
}

// --- host hygiene ---------------------------------------------------------

func loadAvg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	v, _ := strconv.ParseFloat(strings.Fields(string(b))[0], 64)
	return v
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printHost records the host on standard error; a busy host is a warning,
// not a failure.
func printHost(when string) {
	la := loadAvg()
	fmt.Fprintf(os.Stderr, "host at %s: nproc=%d GOMAXPROCS=%d %s commit=%s load1=%.2f\n",
		when, runtime.NumCPU(), workers(), runtime.Version(), commit(), la)
	if when == "start" && la > float64(runtime.NumCPU())/2 {
		fmt.Fprintf(os.Stderr, "WARNING: 1-minute load average %.2f exceeds nproc/2; timings will be noisy\n", la)
	}
}
