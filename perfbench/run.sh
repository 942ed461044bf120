#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache, store logs and trace files all live under
# .bench_build/ in the current directory, so a run writes nowhere else.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
# The toolchain's cache, temporary files, module path and config (its
# telemetry counters included) all stay under the build directory.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --dir "$build" "$@"
