#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout (build cache included, so nothing is written
# outside it) and runs it from the checkout root with the given flags.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/bin"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/bin/smartstore-bench" .)
cd "$root"
exec "$out/bin/smartstore-bench" "$@"
