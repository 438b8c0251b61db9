#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (Go build cache
# included, so nothing is written outside the repository) and runs it from
# the repository root with the given arguments:
#
#   bash perfbench/run.sh --workload general --seed 7 --seconds 20 --trace 0
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOTELEMETRY=off GOFLAGS=
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --root "$root" "$@"
