#!/usr/bin/env bash
# The benchmark's entry point (BENCHMARK.json's command): builds the
# program from the checkout's source into .bench_build/ -- Go's build
# cache included, so nothing is written outside the checkout -- and runs
# it with the given arguments. Run it from the repo root.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
go build -o "$build/proteus-benchmark" ./benchmark
exec "$build/proteus-benchmark" "$@"
