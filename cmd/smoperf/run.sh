#!/usr/bin/env bash
# Builds the smoperf harness from this checkout and runs it, passing
# every argument through:
#
#   bash cmd/smoperf/run.sh --workload cli-suite --seed 1 --seconds 20 --trace 0
#   bash cmd/smoperf/run.sh -all -seed 1 -out run.json
#
# Build outputs, the Go build and module caches, the go tool's config
# and telemetry, and span files all stay under .bench_build/ at the root
# of the checkout. Without the repository's root go.mod the build fails
# and the script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
mkdir -p .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOPATH="$root/.bench_build/gopath"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local
go -C cmd/smoperf build -o "$root/.bench_build/smoperf" . >&2
exec "$root/.bench_build/smoperf" "$@"
