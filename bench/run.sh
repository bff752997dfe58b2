#!/usr/bin/env bash
# Builds the benchmark inside the checkout (build cache and GOPATH
# included, so nothing outside the checkout is written) and runs it from
# the checkout's root. Arguments pass through to the benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOPATH="$PWD/.bench_build/gopath" GOTOOLCHAIN=local
go build -C bench -o ../.bench_build/bench .
exec .bench_build/bench "$@"
