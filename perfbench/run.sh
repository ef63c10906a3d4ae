#!/usr/bin/env bash
# Builds the benchmark program from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload table1-dense --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write —
# the Go build cache, temporary files, the binary and the store-mixed
# workload's scratch store — stays under .bench_build in the checkout.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
# The go command keeps its settings and telemetry counters under the user
# config directory; point that into the build directory too.
export XDG_CONFIG_HOME="$build/config"

(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -scratch "$build" "$@"
