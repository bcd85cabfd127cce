#!/usr/bin/env bash
# The command BENCHMARK.json names: builds ./benchmark and runs it with "$@"
# from the repository root, with everything the Go toolchain writes (build
# cache, module cache, temporary files, its own configuration) kept under
# .bench_build/ in the checkout, so a run reads and writes nothing outside it.
# The first run in a fresh checkout therefore compiles the standard library
# too (about a minute on two cores); later runs reuse the cache.
set -euo pipefail
cd "$(dirname "$0")/.."
if [[ ! -f go.mod || ! -d cmd/mcnserve ]]; then
	# Nothing is started here: not the Go command either.
	echo "benchmark: no go.mod and cmd/mcnserve in $PWD: this is not a checkout of the program" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/bin" "$build/config/go/telemetry"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
# With telemetry in its default "local" mode the first go command to see a
# fresh configuration directory starts a detached `go "** telemetry **"`
# child that outlives it. Off, go starts only children it waits for.
echo off >"$build/config/go/telemetry/mode"
go build -o "$build/bin/mcnmark" ./benchmark
# exec, not `go run`: the process the caller started is the benchmark itself,
# so a signal sent to it reaches the code that stops the servers it spawned.
exec "$build/bin/mcnmark" "$@"
