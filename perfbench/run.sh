#!/usr/bin/env bash
# Builds the benchmark and gossipd from this checkout's sources, then runs
# one workload:
#
#   bash perfbench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the checkout
# root (Go's build cache included). Build output goes to stderr; the last
# line of stdout is the result JSON.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build/perfbench"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
cd "$root/perfbench"
go build -o "$build/bin/perfbench" . >&2
go build -o "$build/bin/gossipd" multigossip/cmd/gossipd >&2
cd "$root"
exec "$build/bin/perfbench" -gossipd "$build/bin/gossipd" -workdir "$build/run" "$@"
