#!/usr/bin/env bash
# cluster_soak.sh — advisory cluster soak: a knowload fleet drives the
# knowrouter front over three real knowd shards and, mid-run, one shard is
# SIGKILLed and restarted empty. The router must ride it out: boot-id
# fencing spots the new incarnation, failover replays the dead shard's
# sessions onto survivors, and the retrying fleet finishes with zero
# failed ops. Afterwards a reconcile pass must reach zero strays. Produces
# CLUSTER_REPORT.md (the router's per-shard latency/report table plus the
# fleet's own run report) for CI to upload.
#
# Tunables (env): CLUSTER_SOAK_SEED (default 1), CLUSTER_SOAK_WORKERS (4),
# CLUSTER_SOAK_SESSIONS (6), CLUSTER_SOAK_PACE (100ms), CLUSTER_SOAK_PORT
# (7471 — shards take the next three ports).
set -euo pipefail

cd "$(dirname "$0")/.."

SEED="${CLUSTER_SOAK_SEED:-1}"
WORKERS="${CLUSTER_SOAK_WORKERS:-4}"
SESSIONS="${CLUSTER_SOAK_SESSIONS:-6}"
PACE="${CLUSTER_SOAK_PACE:-100ms}"
PORT="${CLUSTER_SOAK_PORT:-7471}"

ROUTER="127.0.0.1:$PORT"
S1="127.0.0.1:$((PORT + 1))"
S2="127.0.0.1:$((PORT + 2))"
S3="127.0.0.1:$((PORT + 3))"

BIN="$(mktemp -d)"
PIDS=()
trap 'for p in "${PIDS[@]}"; do kill "$p" 2>/dev/null || true; done; rm -rf "$BIN"' EXIT

go build -o "$BIN/knowd" ./cmd/knowd
go build -o "$BIN/knowrouter" ./cmd/knowrouter
go build -o "$BIN/knowctl" ./cmd/knowctl
go build -o "$BIN/knowload" ./cmd/knowload

wait_healthy() { # addr name
    for _ in $(seq 1 200); do
        if curl -fsS "http://$1/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.05
    done
    echo "cluster_soak: $2 on $1 never became healthy" >&2
    cat "$BIN"/*.log >&2 || true
    exit 1
}

start_shard() { # addr logname -> pid on stdout
    "$BIN/knowd" -addr "$1" >>"$BIN/$2.log" 2>&1 &
    echo $!
}

P1="$(start_shard "$S1" shard1)"; PIDS+=("$P1")
P2="$(start_shard "$S2" shard2)"; PIDS+=("$P2")
P3="$(start_shard "$S3" shard3)"; PIDS+=("$P3")
wait_healthy "$S1" shard1; wait_healthy "$S2" shard2; wait_healthy "$S3" shard3

# Aggressive health cadence so ejection, boot-id fencing, and half-open
# re-admission all land inside a short soak window.
"$BIN/knowrouter" -addr "$ROUTER" \
    -shards "n1=http://$S1,n2=http://$S2,n3=http://$S3" \
    -seed "$SEED" -health-every 50ms -fail-after 2 \
    -readmit-after 500ms -shard-attempts 30 -shard-base-delay 2ms \
    -shard-max-delay 50ms >>"$BIN/router.log" 2>&1 &
ROUTER_PID=$!; PIDS+=("$ROUTER_PID")
wait_healthy "$ROUTER" knowrouter
echo "cluster_soak: router up on $ROUTER fronting $S1 $S2 $S3"

"$BIN/knowload" -addr "http://$ROUTER" -seed "$SEED" -workers "$WORKERS" \
    -sessions "$SESSIONS" -pace "$PACE" -max-attempts 60 -report "$BIN/fleet.md" &
LOAD_PID=$!

# Let the fleet get into the session bodies, then kill shard 2 cold and
# bring it back empty: the restarted incarnation advertises a new boot id,
# the router fences the ghost mappings and replays chains onto survivors.
sleep 1
echo "cluster_soak: SIGKILL shard2 pid $P2 mid-run"
kill -9 "$P2"
wait "$P2" 2>/dev/null || true
P2="$(start_shard "$S2" shard2)"; PIDS+=("$P2")
wait_healthy "$S2" shard2
echo "cluster_soak: shard2 restarted empty as pid $P2"

if ! wait "$LOAD_PID"; then
    echo "cluster_soak: knowload reported failed ops" >&2
    cat "$BIN"/*.log >&2
    exit 1
fi

# Post-run anti-entropy must converge: repeat reconcile until a pass finds
# zero strays, zero lost replicas and zero shard errors (latched breakers
# may need a cooldown).
RECONCILED=""
for _ in $(seq 1 100); do
    OUT="$(curl -fsS -X POST "http://$ROUTER/v1/reconcile")"
    if [ "$OUT" = '{"replicas_repaired":0,"shard_errors":0,"strays_closed":0}' ]; then
        RECONCILED=yes
        break
    fi
    echo "cluster_soak: reconcile still busy: $OUT"
    sleep 0.2
done
if [ -z "$RECONCILED" ]; then
    echo "cluster_soak: fleet never reconciled to zero strays" >&2
    cat "$BIN"/router.log >&2
    exit 1
fi

{
    curl -fsS "http://$ROUTER/v1/report"
    echo
    echo '## router stats'
    echo
    echo '```json'
    curl -fsS "http://$ROUTER/v1/stats"
    echo
    echo '```'
    echo
    cat "$BIN/fleet.md"
} >CLUSTER_REPORT.md

kill -TERM "$ROUTER_PID"
wait "$ROUTER_PID" 2>/dev/null || true
echo "cluster_soak: done; report in CLUSTER_REPORT.md"
