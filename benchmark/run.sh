#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it is
# run from, then runs it with the arguments given. Everything the Go tool
# writes (build cache, module cache, binary) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/rsmi-benchmark" .) >&2
cd "$root"
exec "$out/rsmi-benchmark" "$@"
