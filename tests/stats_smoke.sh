#!/bin/sh
# Two-process smoke test of the kStats scrape path: start `mmph_cli
# serve-net --listen` on an ephemeral loopback port, push a small replay
# through it, then scrape `mmph_cli stats` and check that the Prometheus
# exposition carries non-zero counters from the net, serve and WAL layers
# (trace spans come and go with enablement, so they are not asserted). A
# second server at --store-shards 4 --loops 2 checks that the exposition
# writes each family's TYPE line once and carries every WAL shard's
# series. Used both by
# tools/check.sh stats-smoke and by tests/cli_test.sh (ctest). Usage:
# stats_smoke.sh <path-to-mmph_cli>
set -e
CLI="$1"
[ -n "$CLI" ] || { echo "usage: stats_smoke.sh <mmph_cli>"; exit 2; }
DIR=$(mktemp -d)
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null
  [ -n "$SERVER_PID" ] && wait "$SERVER_PID" 2>/dev/null
  rm -rf "$DIR"
}
trap cleanup EXIT

# start_server <extra serve-net flags...>: starts a server on an ephemeral
# port (0 = kernel-assigned, published via a port file; --run-seconds caps
# the lifetime so a wedged test cannot leak a process) and sets SERVER_PID
# and PORT. A bind/listen failure — possible when the host is churning
# sockets even with kernel-assigned ports — retries with a fresh attempt
# instead of flaking; any other premature death, or a timeout waiting for
# the port file, fails loudly with the server log.
start_server() {
  attempt=0
  while :; do
    attempt=$((attempt + 1))
    rm -f "$DIR/port"
    "$CLI" serve-net --listen --port 0 --port-file "$DIR/port" \
      --run-seconds 30 "$@" > "$DIR/server.log" 2>&1 &
    SERVER_PID=$!

    tries=0
    while [ ! -s "$DIR/port" ]; do
      if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        wait "$SERVER_PID" 2>/dev/null || true
        SERVER_PID=""
        if [ "$attempt" -lt 3 ] && grep -Eq "bind|listen" "$DIR/server.log"; then
          echo "server bind failed (attempt $attempt), retrying with a fresh port" >&2
          sleep 0.2
          continue 2
        fi
        echo "server died before publishing its port; server log:"
        cat "$DIR/server.log"
        exit 1
      fi
      tries=$((tries + 1))
      if [ "$tries" -gt 50 ]; then
        echo "timed out waiting for the server port file; server log:"
        cat "$DIR/server.log"
        exit 1
      fi
      sleep 0.1
    done
    break
  done
  PORT=$(cat "$DIR/port")
}

stop_server() {
  kill "$SERVER_PID"
  wait "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=""
}

start_server --wal-dir "$DIR/wal"

# Generate some traffic so the counters and the latency histogram move.
"$CLI" serve-net --connect 127.0.0.1 --port "$PORT" \
  --users 100 --slots 3 --churn 0.02 > "$DIR/client.txt"
grep -q "requests failed *0" "$DIR/client.txt" || { cat "$DIR/client.txt"; exit 1; }

# Scrape: the exposition must show the requests that just happened, a
# moving latency histogram, and the service-level submit counter.
"$CLI" stats --port "$PORT" > "$DIR/stats.txt"
grep -Eq "^mmph_net_requests_total [1-9]" "$DIR/stats.txt" \
  || { echo "missing net requests"; cat "$DIR/stats.txt"; exit 1; }
grep -Eq "^mmph_serve_submitted_total [1-9]" "$DIR/stats.txt" \
  || { echo "missing serve submitted"; cat "$DIR/stats.txt"; exit 1; }
grep -Eq "^mmph_net_request_latency_seconds_count [1-9]" "$DIR/stats.txt" \
  || { echo "missing latency histogram"; cat "$DIR/stats.txt"; exit 1; }
grep -q "mmph_net_request_latency_seconds_bucket{le=\"+Inf\"}" "$DIR/stats.txt" \
  || { echo "missing +Inf bucket"; cat "$DIR/stats.txt"; exit 1; }

# The server runs with --wal-dir, so the exposition must carry the WAL
# writer's series (appends moved with the replay) and the replication lag
# gauge (0 on a primary, but always present).
grep -Eq "^mmph_wal_appends_total [1-9]" "$DIR/stats.txt" \
  || { echo "missing wal appends"; cat "$DIR/stats.txt"; exit 1; }
grep -Eq "^mmph_wal_fsync_seconds_count [0-9]" "$DIR/stats.txt" \
  || { echo "missing wal fsync histogram"; cat "$DIR/stats.txt"; exit 1; }
grep -Eq "^mmph_repl_lag_ops [0-9]" "$DIR/stats.txt" \
  || { echo "missing repl lag gauge"; cat "$DIR/stats.txt"; exit 1; }

# Scrapes are idempotent reads: a second one still answers.
"$CLI" stats --port "$PORT" > "$DIR/stats2.txt"
grep -Eq "^mmph_net_requests_total [1-9]" "$DIR/stats2.txt" \
  || { echo "second scrape failed"; cat "$DIR/stats2.txt"; exit 1; }

stop_server

# A region-sharded, multi-loop server: the exposition format allows one
# TYPE line per metric family, so no TYPE line may repeat (the per-shard
# store families are labeled series of one family each).
start_server --store-shards 4 --loops 2 --wal-dir "$DIR/wal4"
"$CLI" serve-net --connect 127.0.0.1 --port "$PORT" \
  --users 100 --slots 3 --churn 0.02 > "$DIR/client4.txt"
grep -q "requests failed *0" "$DIR/client4.txt" || { cat "$DIR/client4.txt"; exit 1; }
"$CLI" stats --port "$PORT" > "$DIR/stats4.txt"
grep -q "^# TYPE mmph_store_shard_rows gauge" "$DIR/stats4.txt" \
  || { echo "missing store shard rows"; cat "$DIR/stats4.txt"; exit 1; }
DUPLICATES=$(grep '^# TYPE' "$DIR/stats4.txt" | sort | uniq -d)
[ -z "$DUPLICATES" ] \
  || { echo "repeated TYPE lines:"; echo "$DUPLICATES"; exit 1; }
# Every shard log is scraped: one shard-labeled series per WAL shard, each
# mmph_wal_* family under exactly one TYPE line.
for shard in 0 1 2 3; do
  grep -Eq "^mmph_wal_appends_total\{shard=\"$shard\"\} [0-9]" "$DIR/stats4.txt" \
    || { echo "missing wal appends of shard $shard"; cat "$DIR/stats4.txt"; exit 1; }
done
for family in mmph_wal_appends_total mmph_wal_bytes mmph_wal_commits_total \
    mmph_wal_snapshots_total mmph_wal_failures_total mmph_wal_fsync_seconds; do
  [ "$(grep -c "^# TYPE $family " "$DIR/stats4.txt")" = 1 ] \
    || { echo "want one TYPE line for $family"; cat "$DIR/stats4.txt"; exit 1; }
done
stop_server
echo "stats_smoke OK"
