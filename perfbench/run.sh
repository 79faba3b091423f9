#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, e.g.
#   bash perfbench/run.sh --workload scale-steady --seed 1 --seconds 25 --trace 0
# Run it from the repository root. Build outputs, the Go build cache and the
# go command's own config and telemetry stay inside the checkout, under
# $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
