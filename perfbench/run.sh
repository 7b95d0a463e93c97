#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#	bash perfbench/run.sh --workload stream-2m --seed 1 --seconds 36 --trace 0
#
# Every build product and the Go build cache stay under .bench_build/ in the
# current directory, so the run reads and writes nothing outside it. Without
# the repository's own sources next to perfbench/ the build fails and the
# script exits non-zero before printing a result.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# The go command keeps its settings and local telemetry counters under the
# user config directory; keep those inside the checkout too.
export XDG_CONFIG_HOME="$build/config"
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
