#!/usr/bin/env bash
# Build the benchmark binary from source into .bench_build/ (Go build cache
# included, so nothing is written outside the checkout) and run it with the
# given arguments: bash bench/run.sh run --workload W --seed S --seconds N --trace 0|1
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
