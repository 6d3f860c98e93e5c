#!/bin/sh
# scale_smoke.sh — abbreviated engine scale sweep for CI, in two arms.
#
# Arm 1 runs the default engines, sync and shard, over the reduced
# ladder at the runner's default GOMAXPROCS. Arm 2 exercises the
# multi-worker shard path on any runner: it reruns sync+shard with an
# explicit worker count > 1, so cross-shard merges happen, and the
# sweep's built-in
# cross-engine check asserts the shard coloring equals the sync
# reference on every rung. A zero exit is the verdict. POSIX sh.
set -eu

SCALE="${SCALE_SMOKE_SCALE:-0.05}"
WORKERS="${SCALE_SMOKE_WORKERS:-4}"

say() { echo "scale-smoke: $*"; }
die() { say "FAIL: $*"; exit 1; }

say "arm 1: sync and shard, default workers (scale $SCALE)"
go run ./cmd/dimabench -exp scale -scale "$SCALE" \
    || die "scale sweep failed"

say "arm 2: sync vs shard at workers=$WORKERS (coloring cross-check)"
out=$(go run ./cmd/dimabench -exp scale -scale "$SCALE" \
    -engine sync,shard -workers "$WORKERS") \
    || die "multi-worker scale sweep failed (coloring divergence aborts the sweep)"
echo "$out" | grep -q "colorings identical across engines" \
    || die "multi-worker arm did not report the cross-engine check"
say "OK: shard workers=$WORKERS reproduces the sync coloring on every rung"
