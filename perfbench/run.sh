#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build/ in that directory: the Go build cache
# included, so the first run also compiles the standard library.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomod" "$out/config"

# The Go command keeps its caches, temporary files and telemetry counters
# under these; pointing them into .bench_build keeps every write inside
# the checkout. GOPROXY=off: the module has no dependencies to fetch.
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOMODCACHE=$out/gomod XDG_CONFIG_HOME=$out/config
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

rev=unknown
if [ -d "$root/.git" ] && command -v git >/dev/null; then
	rev=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
(cd "$here" && go build -buildvcs=false -ldflags "-X main.buildCommit=$rev" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
