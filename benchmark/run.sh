#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the repository root) and runs it with the arguments given.
# Everything the Go toolchain writes (build cache, temp files, config) is
# kept under .bench_build/ too, so a run touches nothing outside its
# checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/optchain-benchmark" .)
exec "$out/optchain-benchmark" "$@"
