#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark and the two
# daemons it drives (xqd, xqpeer) from the checkout's source into
# .bench_build/ at the root of the checkout, then runs the benchmark with
# the arguments given. Everything the build writes stays inside the
# checkout; nothing is downloaded.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build=$root/.bench_build
mkdir -p "$build/bin"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$build/bin/" . distxq/cmd/xqd distxq/cmd/xqpeer) >&2
cd "$root"
exec "$build/bin/benchmark" -bin "$build/bin" -tmp "$build/tmp" -results "$here/results" "$@"
