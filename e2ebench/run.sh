#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#   bash e2ebench/run.sh --workload serve-unique --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache, Go telemetry)
# stays under .bench_build/ in the current directory. The binary is
# built without VCS stamping, so a copy of the tree without usable VCS
# metadata builds too; the program asks git for the commit itself. All
# arguments are passed to the benchmark.
set -euo pipefail

root=$PWD
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/home"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C "$src" build -buildvcs=false -o "$out/e2ebench" .
exec "$out/e2ebench" "$@"
