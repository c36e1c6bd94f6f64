#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload pipeline_lsm --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR,
# or .bench_build/ in the current directory when it is unset.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

cd "$root"
exec "$out/perfbench" -workdir "$out/work" -spans "$out/spans" "$@"
