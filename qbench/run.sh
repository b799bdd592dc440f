#!/usr/bin/env bash
# Builds the qhorn benchmark from the checkout it is run in and runs it.
#
#   bash qbench/run.sh --workload engine --seed 1 --seconds 10 --trace 0
#   bash qbench/run.sh --repeat 10 --workload serve_fused --seconds 10
#
# Run it from the root of the repository. The build cache, the module
# cache and the binary all live under .bench_build/ in the checkout, so
# the benchmark reads and writes nothing outside it apart from the Go
# toolchain itself. Build output goes to standard error; standard output
# carries only the benchmark's report.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export CGO_ENABLED=0

(cd "$root/qbench" && go build -o "$build/qbench" .) >&2
exec "$build/qbench" "$@"
