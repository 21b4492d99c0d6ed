package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

// asMainEnv makes the test binary behave as the experiments command, so
// the tests need no second build.
const asMainEnv = "EXPERIMENTS_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// command returns the experiments command with args, killed when ctx ends.
func command(t *testing.T, ctx context.Context, args ...string) *exec.Cmd {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	return cmd
}

// TestRefusedFlagCombinations: a flag the run would ignore is one line on
// stderr and exit status 2, before anything runs. An agent serves its
// coordinator's requests, so every flag that shapes a coordinator's run is
// refused beside -agent instead of being dropped while the agent serves;
// -list runs nothing, so every other flag is refused beside it.
func TestRefusedFlagCombinations(t *testing.T) {
	for _, spec := range []string{
		"-shards 0",
		"-chaos 7",
		"-agent - -chaos 7",
		"-agents 127.0.0.1:7101,,127.0.0.1:7102",
		"-agent 127.0.0.1:0 -shards 2",
		"-agent 127.0.0.1:0 -shards 1",
		"-agent 127.0.0.1:0 -agents 127.0.0.1:7101",
		"-agent 127.0.0.1:0 -experiment F1",
		"-agent 127.0.0.1:0 -quick",
		"-agent 127.0.0.1:0 -csv",
		"-agent 127.0.0.1:0 -checkpoint x.ckpt",
		"-agent - -quick",
		"-list -agent 127.0.0.1:0",
		"-list -experiment ZZ",
		"-list -quick",
		"-list -metrics 127.0.0.1:0",
		"-quick T1 -csv",
		"T1",
		"-agent - extra",
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := command(t, ctx, strings.Fields(spec)...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("experiments %s: %v, want exit status 2", spec, err)
			continue
		}
		if lines := strings.Count(stderr.String(), "\n"); lines != 1 || stdout.Len() != 0 {
			t.Errorf("experiments %s: stdout %q, stderr %q; want one line on stderr only", spec, stdout.String(), stderr.String())
		}
	}
}

// TestAgentFlagsAccepted: the agent forms other tools start still serve —
// a TCP agent alone, with -metrics or with -chaos, and the stdin/stdout
// agent -shards starts, which ends when its input does.
func TestAgentFlagsAccepted(t *testing.T) {
	for _, spec := range []string{
		"-agent 127.0.0.1:0",
		"-agent 127.0.0.1:0 -metrics 127.0.0.1:0",
		"-agent 127.0.0.1:0 -chaos 3",
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cmd := command(t, ctx, strings.Fields(spec)...)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(stdout).ReadString('\n')
		if !strings.HasPrefix(line, "cluster agent listening ") {
			t.Errorf("experiments %s: first line %q (%v), want the agent's listening line", spec, line, err)
		}
		cancel()
		_ = cmd.Wait() // the agent serves until cancel kills it
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := command(t, ctx, "-agent", "-")
	if out, err := cmd.CombinedOutput(); err != nil || len(out) != 0 {
		t.Errorf("experiments -agent - on empty input: %v, output %q; want a clean exit", err, out)
	}
}

// TestListAlone: -list by itself prints one entry per experiment and exits 0.
func TestListAlone(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := command(t, ctx, "-list").Output()
	if err != nil {
		t.Fatalf("experiments -list: %v", err)
	}
	if got := strings.Count(string(out), "     expect: "); got != len(harness.All()) {
		t.Errorf("experiments -list printed %d entries, want %d", got, len(harness.All()))
	}
}

// TestStdoutWriteErrorExits: tables that cannot be written are one line on
// stderr and exit status 1, not exit status 0 with nothing written.
func TestStdoutWriteErrorExits(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("no /dev/full here")
	}
	defer full.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := command(t, ctx, "-quick", "-csv", "-experiment", "T1")
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = full, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("experiments > /dev/full: %v, want exit status 1", err)
	}
	if strings.Count(stderr.String(), "\n") != 1 || !strings.HasPrefix(stderr.String(), "experiments: stdout:") {
		t.Errorf("experiments > /dev/full: stderr %q, want one experiments: stdout: line", stderr.String())
	}
}
