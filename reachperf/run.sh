#!/usr/bin/env bash
# Builds the REACH benchmark from this checkout and runs one workload.
# Run it from the repository root:
#
#   bash reachperf/run.sh --workload sensor-feed --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binary, data and span files)
# goes under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -buildvcs=false -o "$out/bin/reachperf" .) >&2
exec "$out/bin/reachperf" --out "$out/reachperf" "$@"
