#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the checkout
# root and runs it with the given arguments. Everything the build and the
# run write — Go's build cache included — stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C benchmark -o "$build/cdb-benchmark" .
exec "$build/cdb-benchmark" "$@"
