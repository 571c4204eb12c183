#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload train-ps-bulk --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Every build artifact (binary, Go build
# cache, temporary files) stays under .bench_build/, so nothing is written
# outside the checkout. Outside a full checkout the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-buildvcs=false GOTELEMETRY=off
export HOME="$out/home" TMPDIR="$out/tmp"

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
