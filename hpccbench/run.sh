#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; run from
# the root of the checkout:
#
#   bash hpccbench/run.sh --workload e4-cold --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, the binary, scratch files and the
# per-run artifacts (result.json, and spans.json and cpu.pprof from a
# traced run).
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/hpccbench" && go build -o "$out/hpccbench/hpccbench" .) >&2
exec "$out/hpccbench/hpccbench" "$@"
