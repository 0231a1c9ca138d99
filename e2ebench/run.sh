#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root; every argument goes to the benchmark:
#
#   bash e2ebench/run.sh --workload evaluate --seed 1 --seconds 30 --trace 0
#   bash e2ebench/run.sh --all --seed 1 --seconds 30
#
# Build outputs, the Go build cache and traced-run spans stay under
# .bench_build/ in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

# Everything the toolchain writes stays under $out; no user go env file,
# no toolchain or module downloads (the module has no dependencies).
export GOENV=off
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=
BENCH_COMMIT="$(git -C "$here/.." rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT

go -C "$here" build -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
