#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build (inside the checkout,
# go build cache included) and runs it with the arguments given.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
mkdir -p "$root/.bench_build"
(cd bench && go build -o "$root/.bench_build/bench" .)
exec "$root/.bench_build/bench" "$@"
