#!/usr/bin/env sh
# Fleet launcher: one config file starts the whole replay service —
# the retrace_serviced coordinator daemon plus any retrace_shardd shard
# daemons it should dial.
#
# Usage:
#   tools/retrace_fleet.sh <fleet.conf>
#
# The config file is sourced as shell (see tools/fleet.conf.example):
#   LISTEN=127.0.0.1:7901     ingest endpoint (report submit + health)
#   SHARDS=2                  shard fleet width (1 = in-process search)
#   SHARDD_PORTS="7911 7912"  when set, start one local
#                             `retrace_shardd --listen` per port and
#                             point the coordinator at them (setting
#                             RETRACE_SHARD_ENDPOINTS makes its fleet
#                             dial TCP shards); when empty, the
#                             coordinator forks local shard processes
#                             (no separate daemons needed)
#   TOKEN=...                 shared secret; exported as
#                             RETRACE_SHARD_TOKEN to every process so
#                             the TCP fleet handshake is authenticated
#   SNAPSHOT=/path/cache.img  slice-cache snapshot (loaded on start,
#                             saved on shutdown); empty = off
#   SERVE_ARGS="--cap-ms 30000"  extra retrace_serviced serve arguments
#
# Binaries are looked up in $RETRACE_BIN (default: ./build). The script
# stays in the foreground as the service; SIGTERM/SIGINT tears the whole
# fleet down in order (coordinator first, then the shard daemons).
set -eu

if [ "$#" -ne 1 ] || [ ! -r "$1" ]; then
  echo "usage: $0 <fleet.conf>" >&2
  exit 2
fi

LISTEN=127.0.0.1:0
SHARDS=1
SHARDD_PORTS=""
TOKEN=""
SNAPSHOT=""
SERVE_ARGS=""
# shellcheck disable=SC1090
. "$1"

BIN="${RETRACE_BIN:-./build}"
for tool in retrace_serviced retrace_shardd; do
  if [ ! -x "$BIN/$tool" ]; then
    echo "retrace_fleet: $BIN/$tool not found (set RETRACE_BIN)" >&2
    exit 1
  fi
done

if [ -n "$TOKEN" ]; then
  RETRACE_SHARD_TOKEN="$TOKEN"
  export RETRACE_SHARD_TOKEN
fi

SHARDD_PIDS=""
ENDPOINTS=""
for port in $SHARDD_PORTS; do
  "$BIN/retrace_shardd" --listen "127.0.0.1:$port" &
  SHARDD_PIDS="$SHARDD_PIDS $!"
  ENDPOINTS="${ENDPOINTS:+$ENDPOINTS,}127.0.0.1:$port"
done
if [ -n "$ENDPOINTS" ]; then
  RETRACE_SHARD_ENDPOINTS="$ENDPOINTS"
  export RETRACE_SHARD_ENDPOINTS
fi

cleanup() {
  [ -n "${SERVICED_PID:-}" ] && kill "$SERVICED_PID" 2>/dev/null || true
  [ -n "${SERVICED_PID:-}" ] && wait "$SERVICED_PID" 2>/dev/null || true
  for pid in $SHARDD_PIDS; do
    kill "$pid" 2>/dev/null || true
  done
}
trap cleanup TERM INT EXIT

# shellcheck disable=SC2086
"$BIN/retrace_serviced" serve --listen "$LISTEN" --shards "$SHARDS" \
  ${SNAPSHOT:+--snapshot "$SNAPSHOT"} $SERVE_ARGS &
SERVICED_PID=$!
wait "$SERVICED_PID"
