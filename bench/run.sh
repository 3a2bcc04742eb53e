#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (with the Go build
# cache, temp files and toolchain config kept there too, so nothing is
# written outside the checkout) and runs it from the checkout root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local \
	go build -C bench -o "$build/espresso-bench" .
exec "$build/espresso-bench" "$@"
