#!/usr/bin/env bash
# Builds the benchmark into .bench_build at the repository root and runs
# it with the given flags, for example:
#
#   bash bench/run.sh --workload eval_zipf --seed 7 --seconds 15 --trace 0
#
# Go's build cache, temporary files, GOPATH and configuration (where the
# go command keeps its telemetry counters) are kept under .bench_build, so
# a run writes nothing outside the checkout, and reads nothing outside it
# but the toolchain.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -C "$root/bench" -o "$out/bench" .
exec "$out/bench" "$@"
