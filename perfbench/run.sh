#!/usr/bin/env bash
# Builds arserve and the benchmark from this checkout, then runs one
# workload: bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Everything it writes stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTELEMETRY=off GOTOOLCHAIN=local GOWORK=off
go build -o "$out/arserve" ./cmd/arserve
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -arserve "$out/arserve" -work "$out/work" "$@"
