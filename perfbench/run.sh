#!/usr/bin/env bash
# Builds the benchmark program and gables-repro from the checkout it is run
# in, then runs the benchmark with the arguments given. Run it from the
# repository root:
#
#	bash perfbench/run.sh --workload serve-point --seed 1 --seconds 50 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout:
# the Go build cache, the two binaries and the traced runs' span files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= CGO_ENABLED=0

go build -o "$out/bin/gables-repro" ./cmd/gables-repro >&2
go -C perfbench build -o "$out/bin/perfbench" . >&2

exec "$out/bin/perfbench" -repro "$out/bin/gables-repro" -out "$out" "$@"
