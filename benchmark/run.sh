#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments.  Run it from the repository root:
#
#   bash benchmark/run.sh --workload report --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and every temporary file of a run live
# under .bench_build/ at the root, so a run writes nothing else.  Outside a
# full checkout (no root module to build against) the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off

go -C benchmark build -o "$out/nvbench-e2e" .
exec "$out/nvbench-e2e" "$@"
