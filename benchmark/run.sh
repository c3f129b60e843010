#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments, from the repository root. The go build cache and
# the binary live under .bench_build/ so nothing is written outside the
# checkout; no network and no module download is needed (standard
# library plus this repository only).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPROXY=off GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/idonly-benchmark" .)
cd "$root"
exec "$build/idonly-benchmark" "$@"
