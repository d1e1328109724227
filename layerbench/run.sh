#!/usr/bin/env bash
# Builds the benchmark and asrankd from the checkout it is run in, then
# runs one workload:
#
#   bash layerbench/run.sh --workload batch --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds, caches and
# writes stays inside the checkout: Go's build cache, module cache and
# temporary files under .bench_build (or $CARGO_TARGET_DIR), results and
# traces under .bench_run.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
unset GOROOT_FINAL

(cd "$root/layerbench" && go build -o "$build/bin/layerbench" . &&
	go build -o "$build/bin/asrankd" github.com/asrank-go/asrank/cmd/asrankd)

exec "$build/bin/layerbench" --asrankd "$build/bin/asrankd" --rundir "$root/.bench_run" "$@"
