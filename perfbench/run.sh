#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given flags.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload cold-mix --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files, the binary and traced-run span files
# all live under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
