#!/bin/bash
# The BENCHMARK.json command: `go run ./bench` from the repository root with
# the Go build cache, temporary files and the toolchain's own configuration
# directory kept inside the checkout, so a run reads and writes nothing
# outside it. The first run in a checkout therefore compiles everything once
# (about 20 s on 2 cores).
#
# Go telemetry is switched off in that configuration directory before the
# first `go` command: in its default "local" mode the go command forks a
# detached telemetry child the first time it runs against a fresh
# configuration directory, and that child outlives the run (it was the
# process the driver found left behind in a checkout without go.mod).
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/cache" "$build/tmp" "$build/config/go/telemetry"
echo off > "$build/config/go/telemetry/mode"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
if [ ! -f go.mod ]; then
	echo "bench/run.sh: go.mod not found: run from the root of a full checkout" >&2
	exit 2
fi
exec go run ./bench "$@"
