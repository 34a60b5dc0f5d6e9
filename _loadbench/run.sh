#!/usr/bin/env bash
# Builds the load benchmark from source and runs it. Run from the
# repository root; all arguments go to the benchmark, e.g.
#
#   bash _loadbench/run.sh --workload solve-verify --seed 42 --seconds 25 --trace 0
#
# The binary, the Go build cache, the go command's telemetry and
# temporary files (the pool cache of serve-zipf) stay under
# .bench_build/ at the repository root.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=

go -C "$root/_loadbench" build -o "$build/loadbench" .
exec "$build/loadbench" "$@"
