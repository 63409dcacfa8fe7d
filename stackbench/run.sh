#!/usr/bin/env bash
# Builds the serving-stack benchmark from source and runs it. Run from the
# repository root:
#
#   bash stackbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The binary, the Go build cache and the traced runs' span files go under
# .bench_build/ in the repository root; nothing is written elsewhere.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOTELEMETRY=off
go -C stackbench build -o "$out/stackbench" .
exec "$out/stackbench" "$@"
