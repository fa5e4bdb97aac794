#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload closed-paper --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache, binary, run state, span dumps,
# hang reports) stays under .bench_build/ in the current directory. The
# build needs the repository's own go.mod one level up: in a directory
# holding only the benchmark it fails, and so does this script.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOFLAGS= GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out" "$@"
