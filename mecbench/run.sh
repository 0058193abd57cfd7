#!/usr/bin/env bash
# Builds mecd and the benchmark harness from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash mecbench/run.sh --workload steady --seed 1 --seconds 30 --trace 0
#
# Every build product, Go cache, durable state directory and temp file lives
# under .bench_build/ in the checkout.
set -euo pipefail

cd "$(dirname "$0")/.."
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go build -o "$out/bin/mecd" ./cmd/mecd
(cd mecbench && go build -o "$out/bin/mecbench" .)
exec "$out/bin/mecbench" -mecd "$out/bin/mecd" -work "$out" "$@"
