#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (build cache
# included, so nothing is written outside the checkout) and runs it from
# the checkout's root with the arguments given.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local
go build -C "$bench" -o "$out/lwbench" .
cd "$root"
exec "$out/lwbench" -dir "$(basename "$bench")" "$@"
