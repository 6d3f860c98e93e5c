#!/bin/sh
# cluster_smoke.sh — end-to-end smoke of the multi-process tcp engine
# (docs/CLUSTER.md): a coordinator plus 4 node processes over loopback
# color a ~10^5-edge Erdős–Rényi graph, and every output that can be
# diffed is diffed against the sequential sync reference — coloring
# JSON, per-round telemetry JSONL, and the result line — for both
# algorithms, plus a lossy Algorithm 1 arm (5% delivery loss with the
# recovery layer) that drives the round frames' drop lists. A second arm drives the operator-launched layout through
# cmd/dimanode against a fixed port. Finally the script asserts no node
# process outlived its run. POSIX sh.
set -eu

N="${CLUSTER_SMOKE_N:-25000}"
DEG="${CLUSTER_SMOKE_DEG:-8}"
NODES="${CLUSTER_SMOKE_NODES:-4}"
SEED="${CLUSTER_SMOKE_SEED:-11}"

say() { echo "cluster-smoke: $*"; }
die() { say "FAIL: $*"; exit 1; }

TMP="$(mktemp -d "${TMPDIR:-/tmp}/dima-cluster-smoke.XXXXXX")"
# On exit, optionally preserve the run/coordinator logs (CI uploads them
# when the job fails), then clean up.
LOGDIR="${CLUSTER_SMOKE_LOGDIR:-}"
cleanup() {
    if [ -n "$LOGDIR" ]; then
        mkdir -p "$LOGDIR"
        cp "$TMP"/*.out "$LOGDIR"/ 2>/dev/null || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

say "building binaries"
go build -o "$TMP/graphgen" ./cmd/graphgen
go build -o "$TMP/dimacolor" ./cmd/dimacolor
go build -o "$TMP/dimanode" ./cmd/dimanode

say "generating er n=$N deg=$DEG (~$((N * DEG / 2)) edges)"
"$TMP/graphgen" -family er -n "$N" -deg "$DEG" -seed 3 -o "$TMP/g.graph"

# result_line FILE — extract the "result: ..." summary for comparison.
result_line() { grep '^result:' "$1" || die "no result line in $1"; }

run_pair() {
    # run_pair NAME EXTRA_FLAGS... — the same run through sync and tcp,
    # then byte-compare coloring JSON, telemetry JSONL, and result line.
    name="$1"; shift
    say "$name: sync reference"
    "$TMP/dimacolor" -in "$TMP/g.graph" -seed "$SEED" "$@" \
        -json "$TMP/$name-sync.json" -metrics-out "$TMP/$name-sync.jsonl" \
        > "$TMP/$name-sync.out" || die "$name sync run failed"
    say "$name: tcp, $NODES node processes"
    "$TMP/dimacolor" -in "$TMP/g.graph" -seed "$SEED" "$@" \
        -engine tcp -nodes "$NODES" \
        -json "$TMP/$name-tcp.json" -metrics-out "$TMP/$name-tcp.jsonl" \
        > "$TMP/$name-tcp.out" || die "$name tcp run failed"
    cmp -s "$TMP/$name-sync.json" "$TMP/$name-tcp.json" \
        || die "$name: coloring JSON differs between sync and tcp"
    cmp -s "$TMP/$name-sync.jsonl" "$TMP/$name-tcp.jsonl" \
        || die "$name: per-round telemetry differs between sync and tcp"
    sync_line="$(result_line "$TMP/$name-sync.out")"
    tcp_line="$(result_line "$TMP/$name-tcp.out")"
    [ "$sync_line" = "$tcp_line" ] \
        || die "$name: result lines differ: [$sync_line] vs [$tcp_line]"
    grep -q 'terminated=true' "$TMP/$name-tcp.out" || die "$name: tcp run truncated"
    say "$name: OK — $tcp_line"
}

run_pair alg1
run_pair alg2 -strong
run_pair alg1-lossy -drop 0.05 -recover

# Operator-launched arm: the coordinator waits with -external -listen
# and four dimanode processes dial in, on a smaller instance (this arm
# tests the layout, not throughput).
say "external arm: coordinator + $NODES dimanode processes"
"$TMP/graphgen" -family er -n 400 -deg 6 -seed 5 -o "$TMP/small.graph"
PORT=$((10000 + ($$ % 50000)))
"$TMP/dimacolor" -in "$TMP/small.graph" -seed "$SEED" \
    > "$TMP/ext-sync.out" || die "external sync reference failed"
"$TMP/dimacolor" -in "$TMP/small.graph" -seed "$SEED" \
    -engine tcp -nodes "$NODES" -external -listen "127.0.0.1:$PORT" \
    > "$TMP/ext-tcp.out" &
COORD=$!
s=0
while [ "$s" -lt "$NODES" ]; do
    (
        tries=0
        while ! "$TMP/dimanode" -connect "127.0.0.1:$PORT" -shard "$s" -shards "$NODES" 2>/dev/null; do
            tries=$((tries + 1))
            [ "$tries" -ge 100 ] && exit 1
            sleep 0.1
        done
    ) &
    s=$((s + 1))
done
wait "$COORD" || die "external coordinator failed"
wait
ext_sync="$(result_line "$TMP/ext-sync.out")"
ext_tcp="$(result_line "$TMP/ext-tcp.out")"
[ "$ext_sync" = "$ext_tcp" ] \
    || die "external: result lines differ: [$ext_sync] vs [$ext_tcp]"
say "external arm: OK — $ext_tcp"

# Nothing built in $TMP may still be running.
if pgrep -f "$TMP/" > /dev/null 2>&1; then
    pgrep -af "$TMP/" || true
    die "leaked node or coordinator processes"
fi
say "OK: tcp engine byte-identical to sync on both algorithms and under loss, no leaked processes"
