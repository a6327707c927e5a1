#!/usr/bin/env bash
# Builds the sweep benchmark from source and runs one workload from the
# repository root:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
#
# The benchmark binary, the Go build cache, the go command's temporary and
# config files (telemetry counters included) and the warm-resweep store all
# live under .bench_build/ in the checkout, so a run writes nothing outside
# it. Without the parent module next to this directory the build fails and
# the script exits non-zero before any result is printed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$here" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
