#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload sim-table3 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build products, the Go build
# cache, the go command's own configuration and telemetry, and the
# benchmark's scratch files all stay under .bench_build/ (or
# $CARGO_TARGET_DIR when set), so a run writes nothing outside the
# checkout.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
(
	cd "$root/perfbench"
	export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOCACHE="$out/gocache" \
		GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off
	go build -o "$out/perfbench" .
)
exec "$out/perfbench" -scratch "$out/tmp" "$@"
