#!/bin/sh
# chaos-smoke: boot the live gateway with a multi-node control plane under
# the race detector, replay a seeded open-loop trace, and — mid-load — kill
# and restart one node through the /chaos endpoints. P2C placement keeps
# each function on its home node, so the killed node holds work; the run
# fails if it holds no containers when it is killed, on any lost or
# duplicated request (loadgen -require-clean: every request must come back
# exactly once with HTTP 200), any 5xx, or a data race.
set -eu

# Timescale 10 keeps the replay at ~7 s of wall clock, long enough that the
# node kill below lands while requests are genuinely in flight.
GO=${GO:-go}
TIMESCALE=${TIMESCALE:-10}
REQUESTS=${REQUESTS:-200}
NODES=${NODES:-3}

workdir=$(mktemp -d)
addr_file="$workdir/addr"
serve_log="$workdir/serve.log"
report="$workdir/report.json"

cleanup() {
    status=$?
    if [ -n "${load_pid:-}" ]; then
        kill "$load_pid" 2>/dev/null || true
    fi
    if [ -n "${serve_pid:-}" ] && kill -0 "$serve_pid" 2>/dev/null; then
        kill -TERM "$serve_pid" 2>/dev/null || true
        wait "$serve_pid" 2>/dev/null || true
    fi
    if [ "$status" -ne 0 ] && [ -f "$serve_log" ]; then
        echo "--- smiless-serve log ---" >&2
        cat "$serve_log" >&2
    fi
    rm -rf "$workdir"
    exit "$status"
}
trap cleanup EXIT INT TERM

echo "chaos-smoke: building binaries (gateway with -race)"
$GO build -race -o "$workdir/smiless-serve" ./cmd/smiless-serve
$GO build -o "$workdir/loadgen" ./cmd/loadgen

echo "chaos-smoke: booting gateway (nodes=$NODES, timescale ${TIMESCALE}x)"
"$workdir/smiless-serve" \
    -addr 127.0.0.1:0 \
    -addr-file "$addr_file" \
    -timescale "$TIMESCALE" \
    -nodes "$NODES" \
    -affinity p2c \
    -seed 1 \
    >"$serve_log" 2>&1 &
serve_pid=$!

i=0
while [ ! -s "$addr_file" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "chaos-smoke: gateway never wrote $addr_file" >&2
        exit 1
    fi
    if ! kill -0 "$serve_pid" 2>/dev/null; then
        echo "chaos-smoke: gateway exited during startup" >&2
        exit 1
    fi
    sleep 0.1
done
addr=$(cat "$addr_file")
echo "chaos-smoke: gateway at $addr"

# Kick the load, then murder a node while it is mid-flight. loadgen exits
# non-zero unless every request resolves as a clean 200 — a request stranded
# on the dead node (lost) or answered twice by a sloppy failover (duplicated,
# which would desync the response channel) both break that.
"$workdir/loadgen" \
    -url "http://$addr" \
    -requests "$REQUESTS" \
    -rate 3 \
    -horizon 600 \
    -seed 1 \
    -timescale "$TIMESCALE" \
    -check-metrics \
    -require-clean \
    -json "$report" &
load_pid=$!

sleep 2
# /nodes is indented JSON, one field a line: node 1's container count.
held=$(curl -fsS "http://$addr/nodes" \
    | awk -F: '/"id"/ {gsub(/[ ,]/, "", $2); id = $2} /"containers"/ && id == 1 {gsub(/[ ,]/, "", $2); print $2}')
if [ "${held:-0}" -eq 0 ]; then
    echo "chaos-smoke: node 1 holds no containers: killing it would test nothing" >&2
    exit 1
fi
echo "chaos-smoke: killing node 1 ($held containers) mid-load"
curl -fsS -X POST "http://$addr/chaos/kill?node=1" >/dev/null
sleep 2
echo "chaos-smoke: restarting node 1"
curl -fsS -X POST "http://$addr/chaos/restart?node=1" >/dev/null

if ! wait "$load_pid"; then
    echo "chaos-smoke: loadgen reported lost/duplicated/5xx requests" >&2
    exit 1
fi
load_pid=""

# Cross-check the server's ledger against the client's: the gateway must have
# completed exactly as many requests as the client sent. Fewer means a lost
# request slipped past the client; more means a failover duplicated one.
# Exposition lines are "name{labels} value timestamp_ms": the value is the
# second-to-last field.
server_completed=$(curl -fsS "http://$addr/metrics" \
    | awk '/^smiless_requests_completed_total/ {sum += $(NF - 1)} END {printf "%d", sum}')
if [ "$server_completed" -ne "$REQUESTS" ]; then
    echo "chaos-smoke: server completed $server_completed of $REQUESTS requests (lost or duplicated work)" >&2
    exit 1
fi

nodes_json=$(curl -fsS "http://$addr/nodes")
case "$nodes_json" in
*'"health"'*) : ;;
*)
    echo "chaos-smoke: /nodes returned no health info: $nodes_json" >&2
    exit 1
    ;;
esac

echo "chaos-smoke: draining gateway"
kill -TERM "$serve_pid"
wait "$serve_pid"
serve_pid=""
echo "chaos-smoke: OK (server completed $server_completed/$REQUESTS through a node kill+restart)"
