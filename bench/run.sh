#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json "command"): build the bench
# program from source into .bench_build/ under the checkout root, then run it
# with the arguments given. Everything the build writes (binary, Go build
# cache) stays inside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"

# No module has dependencies outside this tree: never reach for the network
# or another toolchain.
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off

# bench/ is a module of its own that replaces `tell` with its parent
# directory; without the repository around it the build fails here, and the
# script exits non-zero without printing a result.
go build -C "$root/bench" -o "$build/bench" . >&2

cd "$root"
exec "$build/bench" "$@"
