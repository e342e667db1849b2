#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload archive --seed 1 --seconds 10 --trace 0
#
# Build outputs and the Go caches stay under .bench_build in the current
# directory, so a run reads and writes nothing outside it.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
