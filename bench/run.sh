#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root; see main.go for the flags. The Go build
# cache, module path, config directory and binary all live in .bench_build/
# so nothing is written outside the tree.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
