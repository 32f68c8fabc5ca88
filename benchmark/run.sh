#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given (see BENCHMARK.json). Everything the build and the run write
# stays under benchmark/out/: the Go build cache, the binary, results and
# traces.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export GOCACHE="$here/out/go-cache" GOTOOLCHAIN=local
mkdir -p "$here/out"
(cd "$here" && go build -o out/ginja-bench .)
exec "$here/out/ginja-bench" -out "$here/out" "$@"
