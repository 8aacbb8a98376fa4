#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. The one entry point:
# BENCHMARK.json's command, `run.sh -seed 1` for every workload, and
# `run.sh compare A.json B.json`. Build products (Go's cache included) stay
# under .bench_build/ so nothing is written outside the checkout.
set -euo pipefail
bench=$(cd "$(dirname "$0")" && pwd)
build=$(dirname "$bench")/.bench_build
export GOCACHE=$build/gocache GOTOOLCHAIN=local
go build -C "$bench" -o "$build/tbnet-bench" .
GOMAXPROCS=2 exec "$build/tbnet-bench" "$@"
