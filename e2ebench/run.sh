#!/usr/bin/env bash
# Builds the end-to-end pipeline benchmark from source and runs it. Run it
# from the repository root; every argument goes to the benchmark:
#
#   bash e2ebench/run.sh --workload fanout-tcp --seed 1 --seconds 10 --trace 0
#
# The build cache and every file the run writes stay under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
command -v go >/dev/null || export PATH="$PATH:/usr/local/go/bin"

(cd "$root/e2ebench" && go build -o "$build/bin/e2ebench" .) >&2
exec "$build/bin/e2ebench" "$@"
