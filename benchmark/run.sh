#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it. Everything
# the build writes stays inside the checkout: the Go build cache too, so the
# first run in a fresh checkout compiles the standard library (about a minute
# on two cores) and later runs only check that nothing changed.
set -euo pipefail
out=.bench_build
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o "$out/remus-benchmark" ./benchmark
exec "$out/remus-benchmark" -dir "$out/run" "$@"
