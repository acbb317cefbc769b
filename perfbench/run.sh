#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it:
#
#   bash perfbench/run.sh --workload chord-static --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# the traced runs' span dumps all stay under .bench_build/ in the
# checkout. The build fails, and the script exits nonzero, when the
# repository's module is not there beside perfbench/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
