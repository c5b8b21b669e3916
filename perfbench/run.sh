#!/bin/sh
# Builds the benchmark from this checkout's sources and runs it:
#
#   sh perfbench/run.sh --workload pipeline_apps --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The binary and the Go build cache live
# under .bench_build/, so nothing is written outside the checkout.
set -eu
if [ ! -f go.mod ] || [ ! -f codetomo.go ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (codetomo sources not found here)" >&2
	exit 2
fi
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOWORK=off GOTOOLCHAIN=local GOFLAGS= \
	go build -C perfbench -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" -root "$root" "$@"
