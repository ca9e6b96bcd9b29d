#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash verifbench/run.sh --workload cold-trec --seed 1 --seconds 18 --trace 0
#
# Run it from the repository root. The build cache, the Go environment and
# the binary all live under .bench_build, so nothing is written outside the
# checkout.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOTELEMETRY=off
(cd "$root/verifbench" && go build -o "$build/verifbench" .)
exec "$build/verifbench" "$@"
