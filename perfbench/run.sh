#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload contrarian-2dc --seed 1 --seconds 28 --trace 0
#
# Build outputs, WAL data, profiles, spans and crash records all stay under
# .bench_build at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/perfbench"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
cd "$root"
exec "$build/perfbench/perfbench" --out "$build/perfbench" "$@"
