#!/usr/bin/env bash
# Serving benchmark of coverd. Run from the repository root:
#
#   bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 20 --trace 0
#
# Builds coverd (./cmd/coverd) and the benchmark from source, then runs one
# workload and prints its result as the last line of standard output. All
# build and run state stays under .bench_build/ in the current directory.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/coverd ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/coverd here)" >&2
	exit 1
fi

out="$PWD/.bench_build"
mkdir -p "$out"
# Keep the Go toolchain's caches and settings inside the checkout, and
# never let it reach the network.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
# With telemetry in its default "local" mode, the go command starts a
# detached sidecar process that outlives this script. "go telemetry off"
# itself starts none, and every later go command reads the mode it writes.
go telemetry off

go build -o "$out/coverd" ./cmd/coverd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -coverd "$out/coverd" -workdir "$out" "$@"
