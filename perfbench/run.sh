#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash perfbench/run.sh --workload cached-read --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it writes (the Go build
# cache and configuration, the binary, WAL directories and span files)
# goes under .bench_build in the working directory. The build is offline:
# the benchmark module depends only on the repository's own module.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
