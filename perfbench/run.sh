#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload fig8 --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary, profiles) stays in
# .bench_build under the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"

# Keep the go command's cache, module and config files inside the
# checkout, and build offline: the benchmark imports only the standard
# library and this repository.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
export HOME="$out/home" XDG_CONFIG_HOME="$out/home"

go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
