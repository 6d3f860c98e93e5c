#!/usr/bin/env bash
# Builds the benchmark and the dimaserve binary it drives into
# .bench_build/, then runs the benchmark with the given flags. Run it
# from the repository root:
#
#   bash bench/run.sh --workload edge-er --seed 1 --seconds 15 --trace 0
#   bash bench/run.sh -runs 3 -out bench/results/baseline-a.json
#   bash bench/run.sh -compare bench/results/baseline-a.json bench/results/baseline-b.json
#
# Every file the Go toolchain writes (build cache, temp files, telemetry)
# stays under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f bench/go.mod ] || [ ! -d cmd/dimaserve ]; then
	echo "bench/run.sh: run from the root of a dima checkout" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go build -o "$build/dimaserve" ./cmd/dimaserve
(cd bench && go build -o "$build/dimabench" .)

commit=unknown
if [ -d .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$build/dimabench" -dimaserve "$build/dimaserve" -commit "$commit" "$@"
