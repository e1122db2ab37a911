#!/usr/bin/env bash
# Builds the benchmark and runs it. Everything the go toolchain and the
# benchmark write stays inside the checkout: caches and binaries under
# .bench_build/, results, traces and per-run scratch under bench/out/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off
unset XDG_CACHE_HOME XDG_CONFIG_HOME GOENV
(cd "$root/bench" && go build -o "$build/cfsf-bench" .)
(cd "$root" && go build -o "$build/cfsf-server" ./cmd/cfsf-server)
exec "$build/cfsf-bench" -root "$root" -server-bin "$build/cfsf-server" "$@"
