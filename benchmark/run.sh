#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source
# into .bench_build/ under the current directory (the checkout's root),
# then replaces this shell with the binary: nothing is left running
# behind it, and there is no `go run` grandchild to outlive a signal.
# Every file the toolchain writes (build cache, module cache, its own
# config) is kept under .bench_build/ too.
set -euo pipefail

root=$PWD
out=$root/.bench_build
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOWORK=off
go build -C "$root/benchmark" -o "$out/benchmark-bin" .
exec "$out/benchmark-bin" "$@"
