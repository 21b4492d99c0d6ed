package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/harness"
)

// The suite workloads drive the built cmd/experiments binary through its
// user-facing flags only; one op is one experiment sweep.

// workers is the host-sized parallelism: nproc, capped at 4.
func workers() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func experimentsBin() string { return filepath.Join(outDir, "experiments") }

// buildExperiments compiles cmd/experiments into the output directory.
func buildExperiments() error {
	cmd := exec.Command("go", "build", "-o", experimentsBin(), "./cmd/experiments")
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build cmd/experiments (run from the repository root): %w", err)
	}
	return nil
}

func sha(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// agentProc is one spawned `experiments -agent` process.
type agentProc struct {
	cmd     *exec.Cmd
	addr    string
	metrics string
}

// scanFor reads lines from r until one starts with prefix and returns the
// rest of that line; the remainder of the stream is drained in the background.
func scanFor(r io.Reader, prefix string) (string, error) {
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadString('\n')
		if strings.HasPrefix(line, prefix) {
			go io.Copy(io.Discard, br)
			return strings.TrimSpace(line[len(prefix):]), nil
		}
		if err != nil {
			return "", fmt.Errorf("waiting for %q: %w", prefix, err)
		}
	}
}

func startAgent(withMetrics bool) (*agentProc, error) {
	args := []string{"-agent", "127.0.0.1:0"}
	if withMetrics {
		args = append(args, "-metrics", "127.0.0.1:0")
	}
	a := &agentProc{cmd: exec.Command(experimentsBin(), args...)}
	stdout, err := a.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	var stderr io.ReadCloser
	if withMetrics {
		if stderr, err = a.cmd.StderrPipe(); err != nil {
			return nil, err
		}
	}
	if err := a.cmd.Start(); err != nil {
		return nil, err
	}
	if withMetrics {
		if a.metrics, err = scanFor(stderr, "metrics listening "); err != nil {
			a.stop()
			return nil, err
		}
	}
	if a.addr, err = scanFor(stdout, "cluster agent listening "); err != nil {
		a.stop()
		return nil, err
	}
	return a, nil
}

// stop kills the agent and waits until it has ended.
func (a *agentProc) stop() {
	a.cmd.Process.Kill()
	a.cmd.Wait()
}

// scrape sums a Prometheus text exposition by metric name over label sets.
func scrape(body string, into map[string]float64) {
	for _, line := range strings.Split(body, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		into[name] += v
	}
}

func httpGet(addr string) (string, error) {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// runCoordinatorScraped runs one sweep with -metrics and polls the
// coordinator's endpoint until it exits; the last body read stands for its
// totals (chunks finished after the last poll are missed).
func runCoordinatorScraped(args []string, into map[string]float64) ([]byte, error) {
	cmd := exec.Command(experimentsBin(), append(args, "-metrics", "127.0.0.1:0")...)
	var out bytes.Buffer
	cmd.Stdout = &out
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var last string
	var wg sync.WaitGroup
	done := make(chan struct{})
	if addr, err := scanFor(stderr, "metrics listening "); err == nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if body, err := httpGet(addr); err == nil {
					last = body
				}
				select {
				case <-done:
					return
				case <-time.After(10 * time.Millisecond):
				}
			}
		}()
	}
	err = cmd.Wait()
	close(done)
	wg.Wait()
	scrape(last, into)
	return out.Bytes(), err
}

// suiteRep runs one repetition of a suite workload: engine bring-up is the
// set-up, then one sweep per experiment, closed loop. mode "metrics" is
// the suite-agents repetition run with -metrics on coordinator and agents.
func suiteRep(w *workload, tiny bool, mode string, started time.Time) repResult {
	res := repResult{Layer: map[string]float64{}}
	fail := func(err error) repResult {
		res.Ops = append(res.Ops, opResult{Name: "setup", Err: err.Error()})
		return res
	}
	flags := []string{"-csv"}
	if tiny {
		flags = append(flags, "-quick")
	}
	var agents []*agentProc
	switch w.engine {
	case "pool", "shards":
		// Bring-up is the binary starting and answering.
		if err := exec.Command(experimentsBin(), "-list").Run(); err != nil {
			return fail(err)
		}
		if w.engine == "shards" {
			flags = append(flags, "-shards", strconv.Itoa(workers()))
		}
	case "agents":
		n := workers() - 1
		if n < 1 {
			n = 1
		}
		var addrs []string
		for i := 0; i < n; i++ {
			a, err := startAgent(mode == "metrics")
			if err != nil {
				return fail(err)
			}
			defer a.stop()
			agents = append(agents, a)
			addrs = append(addrs, a.addr)
		}
		flags = append(flags, "-agents", strings.Join(addrs, ","))
	}
	res.SetupS = time.Since(started).Seconds()

	prom := map[string]float64{}
	for _, id := range suiteIDs {
		args := append(append([]string(nil), flags...), "-experiment", id)
		t0 := time.Now()
		var out []byte
		var err error
		if mode == "metrics" {
			out, err = runCoordinatorScraped(args, prom)
		} else {
			out, err = exec.Command(experimentsBin(), args...).Output()
		}
		wall := time.Since(t0).Seconds()
		or := opResult{Name: id, Digest: sha(out), WallS: wall}
		if err != nil {
			or.Err = err.Error()
		}
		res.Ops = append(res.Ops, or)
		res.WallS += wall
	}
	if mode == "metrics" {
		agentProm := map[string]float64{}
		for _, a := range agents {
			if body, err := httpGet(a.metrics); err == nil {
				scrape(body, agentProm)
			}
		}
		res.Layer["cluster.chunks"] = prom["wlan_cluster_chunks_total"]
		res.Layer["cluster.chunk_latency_mean_s"] = ratio(prom["wlan_cluster_chunk_latency_ns_sum"], prom["wlan_cluster_chunk_latency_ns_count"]) / 1e9
		res.Layer["cluster.redispatched"] = prom["wlan_cluster_redispatched_total"]
		res.Layer["cluster.retries"] = prom["wlan_cluster_retries_total"]
		res.Layer["cluster.heartbeat_rtt_mean_ms"] = ratio(prom["wlan_cluster_heartbeat_rtt_ns_sum"], prom["wlan_cluster_heartbeat_rtt_ns_count"]) / 1e6
		res.Layer["cluster.agent_points"] = agentProm["wlan_agent_points_total"]
	}
	return res
}

// sequentialCSV evaluates one experiment in this process, point by point,
// and renders it exactly as `experiments -csv -experiment id` prints it.
// It returns the bytes, each point's rows and each point's wall time.
func sequentialCSV(id string, quick bool) ([]byte, map[int][][]string, []time.Duration) {
	e := harness.ByID(id)
	g := e.Grid(quick)
	byPoint := make(map[int][][]string, g.N)
	times := make([]time.Duration, g.N)
	for i := 0; i < g.N; i++ {
		t0 := time.Now()
		byPoint[i] = g.Point(i)
		times[i] = time.Since(t0)
		g.Table.AddRows(byPoint[i])
	}
	return []byte(fmt.Sprintf("# %s: %s\n%s\n", e.ID, e.Title, g.Table.CSV())), byPoint, times
}

func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// seqRep is the traced repetition of the suite workloads: every point of
// every sweep timed in this process at GOMAXPROCS=1. It yields the
// sequential wall and CPU the engines are compared against, the critical
// path no scheduler can beat, and the real rows for the codec probe.
func seqRep(tiny bool) repResult {
	runtime.GOMAXPROCS(1)
	res := repResult{Layer: map[string]float64{}}
	rowsOf := map[string]map[int][][]string{}
	cpu0 := selfCPU()
	for _, id := range suiteIDs {
		t0 := time.Now()
		csv, byPoint, times := sequentialCSV(id, tiny)
		wall := time.Since(t0).Seconds()
		var slowest time.Duration
		for _, d := range times {
			res.Layer["harness.seq_wall_s"] += d.Seconds()
			if d > slowest {
				slowest = d
			}
		}
		res.Layer["harness.points"] += float64(len(times))
		res.Layer["harness.critical_path_s"] += slowest.Seconds()
		res.Ops = append(res.Ops, opResult{Name: id, Digest: sha(csv), WallS: wall})
		res.WallS += wall
		rowsOf[id] = byPoint
	}
	res.Layer["harness.seq_cpu_s"] = selfCPU() - cpu0

	var codecNs, rows float64
	for _, id := range suiteIDs {
		ns, n := probeCodec(tiny, id, rowsOf[id])
		codecNs += ns
		rows += float64(n)
	}
	res.Layer["sweep.codec_probe_ns_per_row"] = ratio(codecNs, rows)
	return res
}
