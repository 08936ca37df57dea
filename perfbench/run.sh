#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload batch-tpch --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, span files) stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"

export GOCACHE="$out/go-cache"
export GOMODCACHE="$out/go-mod"
export GOPATH="$out/go-path"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export GOENV=off
# The go command keeps telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
