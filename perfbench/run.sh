#!/usr/bin/env bash
# Builds cmd/sketchd and the benchmark from the source tree, then runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload raw-bulk --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory, including the Go build cache and the go command's own
# configuration and telemetry files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# With telemetry on or local, every go command forks a telemetry sidecar
# that can outlive it; "off" in the mode file (what `go telemetry off`
# writes) keeps the go command from starting one.
mkdir -p "$out/config/go/telemetry"
echo off > "$out/config/go/telemetry/mode"

go build -o "$out/sketchd" ./cmd/sketchd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -sketchd "$out/sketchd" -work "$out" "$@"
