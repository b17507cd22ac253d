#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash perfbench/run.sh --workload verify-cold --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs and the Go build cache stay
# under $CARGO_TARGET_DIR (default .bench_build) in that directory; the
# toolchain is used offline. Outside a full checkout the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build=$(cd "$build" && pwd)
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
