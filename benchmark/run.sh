#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything it writes stays inside the checkout: the Go build cache, the
# compiler's work directory and the binary under .bench_build/, results and
# traces under benchmark/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C benchmark build -o "$build/benchmark" .
exec "$build/benchmark" "$@"
