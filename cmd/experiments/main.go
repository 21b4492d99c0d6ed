// Command experiments regenerates every table and figure in the evaluation
// suite (see the experiment index in README.md at the repository root).
//
// Usage:
//
//	experiments                 # run everything, full fidelity
//	experiments -quick          # fast pass (fewer points, shorter runs)
//	experiments -experiment F3  # one experiment
//	experiments -csv            # machine-readable output
//	experiments -list           # list IDs and titles
//	experiments -shards 8       # evaluate on 8 worker subprocesses
//	experiments -agent :7101    # serve sweep chunks to a remote coordinator
//	experiments -agents h1:7101,h2:7101   # add TCP agents to the worker list
//	experiments -metrics :9090  # serve Prometheus /metrics (+ pprof) while running
//
// In text mode each table is followed by its experiment's expected shape and
// the verdict of the experiment's Check on that table: "holds", or each
// failed clause. CSV output carries tables only.
//
// Every invocation is one run of the sweep engine (repro/internal/cluster):
// one queue over every (experiment, grid point) of the invocation hands the
// first unfinished point, in (experiment, cost descending) order, to
// whichever worker is free, so no worker waits for an experiment to drain
// before starting on the next; tables are printed in suite order, each as
// soon as it and every table before it is complete. The flags choose the
// worker list: by default GOMAXPROCS in-process workers; with -shards N
// (N ≥ 2) N subprocesses of this binary instead (own Go runtime and GC each,
// started once for the run); with -agents one TCP worker per listed
// `experiments -agent :port` process (any reachable machine running the same
// binary, dialled once for the run) in addition, the in-process workers then
// cut to one: the fleet carries the grids, and the one local worker — which
// cannot die — keeps the coordinator's memory at one scenario and lets the
// run finish when every agent is gone. Output is byte-identical to the
// sequential run whatever the list, even when subprocesses or agents die
// mid-run: their in-flight points are re-dispatched. When subprocesses or
// agents take part, one line on stderr summarises the run's per-worker
// point counts.
//
// -metrics works in every mode — coordinator and agent — and announces the
// bound address on stderr as "metrics listening <addr>". Instrumentation is
// determinism-safe: tables stay byte-identical with metrics on (see
// repro/internal/obs).
//
// With -checkpoint the run becomes durable: every verified point is
// journaled to the given file (crash-safe append; internal/sweep
// checkpoint format, one journal for the whole run) and a restarted run —
// after a crash, OOM or Ctrl-C — loads the journal, skips the completed
// points, and still produces output byte-identical to an uninterrupted run.
// It works with any worker list; the restart must select the experiments
// the journal holds. Delete the file to start over.
//
// -agent accepts -chaos seed, which serves the protocol through the
// internal/cluster/faultnet fault injector: connection refusals,
// mid-stream drops, stalls and delayed writes on a schedule that is a pure
// function of the seed. Coordinators pointed at chaos agents must still
// merge sequential-identical output — that is the property CI's chaos step
// exercises. `-agent -` serves the same protocol on stdin/stdout; it is how
// -shards starts its subprocesses and is not meant to be called by hand.
//
// A flag combination that would be ignored — any other flag with -list,
// -shards below 1, -chaos without a TCP -agent, any of -quick, -experiment,
// -csv, -shards, -agents or -checkpoint with -agent, an empty address in
// -agents — is one line on stderr and exit status 2, before anything runs.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/cluster/faultnet"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	var (
		quick   = flag.Bool("quick", false, "fast pass: fewer points, shorter virtual runs")
		expID   = flag.String("experiment", "", "run only this experiment ID (e.g. F3)")
		csv     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		list    = flag.Bool("list", false, "list experiments and exit")
		shards  = flag.Int("shards", 1, "evaluate on N worker subprocesses instead of in-process workers (1 = in-process)")
		agent   = flag.String("agent", "", "agent mode: serve sweep chunks on this TCP address (e.g. :7101) until killed (- = stdin/stdout, internal)")
		agents  = flag.String("agents", "", "comma-separated agent addresses to add to the worker list (beside one in-process worker)")
		ckpt    = flag.String("checkpoint", "", "journal verified points to this file and resume from it on restart")
		chaos   = flag.Int64("chaos", 0, "with -agent: serve through the seeded faultnet injector (0 = off)")
		metrics = flag.String("metrics", "", "serve Prometheus /metrics (+ pprof) on this address (e.g. :9090, :0 picks a port) and enable live instrumentation")
	)
	flag.Parse()

	var addrs []string
	if *agents != "" {
		addrs = strings.Split(*agents, ",")
	}
	// An agent serves whatever its coordinator asks for, so the flags that
	// shape a coordinator's run have nothing to act on beside -agent; -list
	// runs nothing, so no other flag has anything to act on beside it.
	var coordFlag, otherFlag string
	flag.Visit(func(f *flag.Flag) {
		if coordFlag == "" && slices.Contains([]string{"quick", "experiment", "csv", "shards", "agents", "checkpoint"}, f.Name) {
			coordFlag = f.Name
		}
		if otherFlag == "" && f.Name != "list" {
			otherFlag = f.Name
		}
	})
	switch {
	case flag.NArg() > 0: // flag.Parse stops there: later flags would be dropped
		usage("unexpected argument %q: every option is a flag", flag.Arg(0))
	case *list && otherFlag != "":
		usage("-%s shapes a run; -list only prints the experiment index", otherFlag)
	case *shards < 1:
		usage("-shards %d: want at least 1 (1 = in-process workers)", *shards)
	case *chaos != 0 && (*agent == "" || *agent == "-"):
		usage("-chaos injects faults into a TCP agent; it needs -agent host:port")
	case *agent != "" && coordFlag != "":
		usage("-%s shapes a coordinator's run; an -agent serves its coordinator's requests", coordFlag)
	case slices.Contains(addrs, ""):
		usage("-agents %q holds an empty address", *agents)
	}

	if *metrics != "" {
		obs.SetEnabled(true)
		core.MetricsEvery = 100 * sim.Millisecond
		addr, err := obs.Serve(*metrics, obs.Default)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "metrics listening %s\n", addr)
	}

	out := bufio.NewWriter(os.Stdout)
	if *list {
		for _, e := range harness.All() {
			fmt.Fprintf(out, "%-4s %s\n     expect: %s\n", e.ID, e.Title, e.Expect)
		}
		flush(out)
		return
	}

	if *agent == "-" {
		// Subprocess worker of a -shards parent: the parent closing the
		// pipe (or dying) ends the loop.
		new(cluster.Agent).ServePipe(os.Stdin, os.Stdout)
		return
	}
	if *agent != "" {
		logf := func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "agent: "+format+"\n", args...)
		}
		ln, err := net.Listen("tcp", *agent)
		if err != nil {
			fatal(err)
		}
		if *chaos != 0 {
			fmt.Fprintf(os.Stderr, "agent: fault injection on, seed %d\n", *chaos)
			ln = faultnet.Wrap(ln, *chaos)
		}
		if err := cluster.ServeListener(ln, os.Stdout, logf); err != nil {
			fatal(err)
		}
		return
	}

	exps := harness.All()
	if *expID != "" {
		e := harness.ByID(*expID)
		if e == nil {
			fatal(fmt.Errorf("experiments: unknown experiment %q (use -list)", *expID))
		}
		exps = []*harness.Experiment{e}
	}

	local := runtime.GOMAXPROCS(0)
	if addrs != nil {
		// The fleet carries the grids; one local worker keeps the
		// coordinator's footprint at one scenario at a time.
		local = 1
	}
	workers := cluster.InProcess(local)
	if *shards > 1 {
		self, err := os.Executable()
		if err != nil {
			fatal(fmt.Errorf("experiments: cannot locate own binary for re-exec: %v", err))
		}
		workers = cluster.Subprocesses(*shards, self, "-agent", "-")
	}
	workers = append(workers, cluster.Remote(addrs...)...)
	coord := &cluster.Coordinator{
		Workers:        workers,
		Quick:          *quick,
		CheckpointPath: *ckpt,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}

	start := time.Now()
	res, err := coord.Run(exps, func(i int, t *stats.Table) {
		e := exps[i]
		if *csv {
			fmt.Fprintf(out, "# %s: %s\n%s\n", e.ID, e.Title, t.CSV())
		} else {
			fmt.Fprintf(out, "%s\nexpected shape: %s — %s\n(%v into the run)\n\n", t.Render(), e.Expect, verdict(e.Check(t)), time.Since(start).Round(time.Millisecond))
		}
		flush(out)
	})
	if err != nil {
		fatal(err)
	}
	if *shards > 1 || addrs != nil {
		fmt.Fprintf(os.Stderr, "experiments: %d workers;%s\n", len(workers), clusterSummary(res))
	}
}

// verdict renders what a table's Check returned: "holds", or "fails:" and
// one indented line per failed clause.
func verdict(fails []string) string {
	if len(fails) == 0 {
		return "holds"
	}
	return "fails:\n  " + strings.Join(fails, "\n  ")
}

// clusterSummary renders the run's per-worker point counts, e.g.
// " local=3 10.0.0.2:7101=6".
func clusterSummary(res *cluster.Result) string {
	var b strings.Builder
	for _, a := range res.Agents {
		fmt.Fprintf(&b, " %s=%d", a.Addr, a.Points)
		if a.Failed {
			b.WriteString("(failed)")
		}
	}
	if res.Redispatched > 0 {
		fmt.Fprintf(&b, "; %d point(s) re-dispatched", res.Redispatched)
	}
	if res.Resumed > 0 {
		fmt.Fprintf(&b, "; %d point(s) resumed from checkpoint", res.Resumed)
	}
	return b.String()
}

// usage reports a flag combination that would otherwise be ignored.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(2)
}

// flush writes out w's tables as they complete; a write error is fatal.
func flush(w *bufio.Writer) {
	if err := w.Flush(); err != nil {
		fatal(fmt.Errorf("experiments: stdout: %v", err))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
