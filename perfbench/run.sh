#!/usr/bin/env bash
# Builds and runs the ingest benchmark from the root of a checkout, e.g.
#
#   bash perfbench/run.sh --workload fleet-tcp --seed 1 --seconds 30 --trace 0
#
# Go's build cache, temporary files and settings are kept under
# .bench_build in the checkout. The benchmark replaces this shell, so a
# signal sent to the command reaches it and it stops its daemons.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$build/perfbench-bin" .
exec "$build/perfbench-bin" -root "$root" "$@"
