#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash asmpbench/run.sh --workload sweep-cold --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# leave behind (Go build cache, binary, scratch cache dirs, spans) goes
# under .bench_build/ in the current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d asmpbench ]]; then
	echo "asmpbench: run from the repository root (go.mod and asmpbench/ not found)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

go build -buildvcs=false -o "$build/asmpbench" ./asmpbench

commit=unknown
if [[ -d .git ]] && command -v git >/dev/null; then
	commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
fi

exec "$build/asmpbench" --commit "$commit" "$@"
