#!/usr/bin/env bash
# Builds peelserved and peelbench from this source tree, then runs
# peelbench. Everything the build writes stays under .bench_build
# at the root of the checkout.
#
#   bash bench/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#   bash bench/run.sh compare PARENT_DIR CHANGE_DIR
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"

export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
mkdir -p "$GOTMPDIR" "$build/bin" "$XDG_CONFIG_HOME/go/telemetry"
# In a fresh config directory Go telemetry defaults to "local" mode, and
# then the first go command forks a detached uploader that outlives this
# script. Switching telemetry off before any go command prevents that.
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

(cd "$root" && go build -o "$build/bin/peelserved" ./cmd/peelserved)
(cd "$bench" && go build -o "$build/bin/peelbench" .)

if [ "${1:-}" = compare ]; then
	shift
	exec "$build/bin/peelbench" compare -spec "$root/BENCHMARK.json" "$@"
fi
exec "$build/bin/peelbench" -peelserved "$build/bin/peelserved" -out "$bench/out" "$@"
