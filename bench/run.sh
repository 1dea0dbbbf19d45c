#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the driver inside the checkout
# and runs it. Everything the Go toolchain writes (build cache, module cache,
# its config directory) is redirected under .bench_build/ so a run reads and
# writes only inside the checkout it was started from.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
