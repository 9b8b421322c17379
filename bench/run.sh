#!/usr/bin/env bash
# Builds fpmixbench from source and runs it with every argument passed
# through, e.g.
#
#   bash bench/run.sh -workload search-eval -seed 1 -seconds 10 -trace 0
#
# The program runs from bench/, so relative -json/-spans paths resolve
# there. The binary, the Go build cache and run scratch all stay in
# .bench_build/ at the repository root.
set -euo pipefail
cd "$(dirname "$0")"
out="$(cd .. && pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/fpmixbench" .
exec "$out/fpmixbench" "$@"
