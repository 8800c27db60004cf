#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source and
# runs it with the caller's arguments. Everything the build and the run write
# (binary, Go build cache, scratch files) stays under .bench_build/ in the
# directory the command was started from, which is the checkout root.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

# Keep the toolchain inside the checkout and off the network: the module has
# no dependency outside this repository.
export GOCACHE="$build/go-cache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # the go command keeps its telemetry counters there
export GOENV=off GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local

(cd "$src" && go build -o "$build/ebbench" .)
exec "$build/ebbench" "$@"
