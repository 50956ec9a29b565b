#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#   bash perfbench/run.sh --workload busy-8c --seed 1 --seconds 20 --trace 0
# Everything the build writes (Go build cache, binary, profiles) stays
# under $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath GOTMPDIR=$out/tmp \
	XDG_CONFIG_HOME=$out/config GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
