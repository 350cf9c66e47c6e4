#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it, passing every flag
# through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fig3 --seed 1 --seconds 20 --trace 0
#
# Every build artifact (the binary, the Go build cache, the Go tool's
# config and telemetry files) stays under .bench_build in the current
# directory, which must be the repository root.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/perfbench" ]; then
	echo "perfbench: run from the repository root (no go.mod or perfbench/ here)" >&2
	exit 2
fi
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
