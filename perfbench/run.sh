#!/usr/bin/env bash
# Builds the benchmark and percival-serve from this checkout, then runs one
# workload:
#
#   bash perfbench/run.sh --workload fleet_cold --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --smoke
#
# Run it from the repository root. Every build and run artifact stays under
# .bench_build/ in the checkout (Go build cache included).
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod are missing here)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local

(
	cd "$root/perfbench"
	go build -o "$build/bin/perfbench" .
	go build -o "$build/bin/percival-serve" percival/cmd/percival-serve
) >&2

exec "$build/bin/perfbench" -serve-bin "$build/bin/percival-serve" -out "$build/perfbench-runs" "$@"
