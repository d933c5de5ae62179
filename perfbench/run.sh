#!/usr/bin/env bash
# Builds the perfbench harness from this checkout's sources and runs it
# with the given arguments. Every file the Go toolchain writes (build
# cache, temp files, telemetry) stays under .bench_build in the directory
# the script is run from, which must be the repository root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/home/go" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
