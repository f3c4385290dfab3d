#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload.
#
#   bash benchmark/run.sh --workload suite|exact|daemon --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Every file the build and the run write
# goes under $CARGO_TARGET_DIR (default .bench_build): the Go build cache,
# the binary, the daemon's job WAL, the determinism records and the traces.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOTOOLCHAIN=local

(cd benchmark && go build -trimpath -o "$out/benchmark" .)
exec "$out/benchmark" "$@"
