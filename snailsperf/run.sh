#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with
# the given flags. Run it from the repository root:
#
#   bash snailsperf/run.sh --workload serve-wide --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache, temporary files and the Go tools' own
# state stay under .bench_build/ in the checkout, and the build never
# reaches the network.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	TMPDIR="$out/tmp" GOTMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd snailsperf && go build -o "$out/snailsperf" .)
exec "$out/snailsperf" "$@"
