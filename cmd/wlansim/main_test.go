package main

import (
	"bytes"
	"errors"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

// asMainEnv makes the test binary behave as the wlansim command, so the
// tests need no second build.
const asMainEnv = "WLANSIM_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMainEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// wlansim runs the command and returns its stdout.
func wlansim(t *testing.T, args ...string) string {
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
		t.Fatalf("wlansim %v: %v\n%s", args, err, stderr.String())
	}
	return string(out)
}

// TestPositionalArgumentRefused: flag.Parse stops at the first non-flag,
// so a stray argument is one line on stderr and exit status 2 instead of a
// run that silently drops every flag after it.
func TestPositionalArgumentRefused(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"3", "-n", "1", "-duration", "100ms"}, {"-n", "1", "-duration", "100ms", "x"}} {
		cmd := exec.Command(self, args...)
		cmd.Env = append(os.Environ(), asMainEnv+"=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("wlansim %v: %v, want exit status 2", args, err)
			continue
		}
		if lines := strings.Count(stderr.String(), "\n"); lines != 1 || stdout.Len() != 0 {
			t.Errorf("wlansim %v: stdout %q, stderr %q; want one line on stderr only", args, stdout.String(), stderr.String())
		}
	}
}

// TestTraceWriteErrorExits: a trace that cannot be written is one line on
// stderr and exit status 1, not a silent empty file and a table.
func TestTraceWriteErrorExits(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full here")
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"-n", "2", "-duration", "100ms", "-trace", "/dev/full"}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("wlansim %v: %v, want exit status 1", args, err)
	}
	if lines := strings.Count(stderr.String(), "\n"); lines != 1 || !strings.HasPrefix(stderr.String(), "wlansim: -trace:") || stdout.Len() != 0 {
		t.Errorf("wlansim %v: stdout %q, stderr %q; want one wlansim: -trace: line on stderr only", args, stdout.String(), stderr.String())
	}
}

// TestStdoutWriteErrorExits: a table that cannot be written is one line on
// stderr and exit status 1, not exit status 0 with nothing written.
func TestStdoutWriteErrorExits(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("no /dev/full here")
	}
	defer full.Close()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self, "-n", "1", "-duration", "100ms")
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = full, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("wlansim > /dev/full: %v, want exit status 1", err)
	}
	if strings.Count(stderr.String(), "\n") != 1 || !strings.HasPrefix(stderr.String(), "wlansim: stdout:") {
		t.Errorf("wlansim > /dev/full: stderr %q, want one wlansim: stdout: line", stderr.String())
	}
}

// TestGoodputOverMeasuredDuration: a flow's Mbit/s is its delivered
// payload over -duration. The infra topology runs an association phase
// before it attaches its flows, and that phase must not dilute the rate.
func TestGoodputOverMeasuredDuration(t *testing.T) {
	for _, topology := range []string{"adhoc", "infra"} {
		out := wlansim(t, "-topology", topology, "-n", "1", "-payload", "1500", "-duration", "1s")
		var row []string
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) == 6 && f[0] == "1" {
				row = f
			}
		}
		if row == nil {
			t.Fatalf("%s: no row for flow 1 in\n%s", topology, out)
		}
		mbps, err1 := strconv.ParseFloat(row[1], 64)
		delivered, err2 := strconv.Atoi(row[2])
		if err1 != nil || err2 != nil || delivered == 0 {
			t.Fatalf("%s: unreadable row %q", topology, row)
		}
		// 1500-byte payloads over 1 s, printed to two decimals.
		want := float64(delivered) * 1500 * 8 / 1e6
		if math.Abs(mbps-want) > 0.0051 {
			t.Errorf("%s: %d packets in 1 s printed as %.2f Mbit/s, want %.2f", topology, delivered, mbps, want)
		}
	}
}
