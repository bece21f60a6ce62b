#!/usr/bin/env bash
# Builds codecompd and the benchmark from this tree into .bench_build,
# then runs one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload refill-hot --seed 1 --seconds 10 --trace 0
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/codecompd ]; then
	echo "perfbench: run from the repository root; go.mod or cmd/codecompd is missing" >&2
	exit 2
fi

out="$(pwd)/.bench_build"
mkdir -p "$out"
# Keep every file the Go toolchain writes (build cache, module cache,
# settings) inside the checkout, and never fetch a toolchain.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=
# With telemetry on, every go command may fork a detached upload process
# that outlives this script. "go telemetry off" itself forks none.
go telemetry off

go build -o "$out/codecompd" ./cmd/codecompd
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -daemon "$out/codecompd" -work "$out" "$@"
