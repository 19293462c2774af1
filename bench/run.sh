#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the repository root:
#
#   bash bench/run.sh --workload bulk --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary all stay under
# .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOTELEMETRY=off GOPROXY=off
(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
