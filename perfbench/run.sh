#!/usr/bin/env bash
# Builds the benchmark from source and runs it in perfbench/. Run from the
# repository root; arguments pass through, e.g.
#   bash perfbench/run.sh --workload cells --seed 1 --seconds 20 --trace 0
# The Go build cache, the go command's telemetry and configuration (under
# XDG_CONFIG_HOME) and the binary stay under .bench_build/ in the current
# directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$root/perfbench" -o "$build/perfbench" . >&2
# A checkout without git history records that instead of a commit.
commit=not-a-git-checkout
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
cd "$root/perfbench"
exec "$build/perfbench" --commit "$commit" "$@"
