#!/bin/sh
# End-to-end test of the mmph_cli tool: generate -> solve -> evaluate ->
# describe round trip, plus error handling. Run by CTest with the cli
# binary path as $1.
set -e
CLI="$1"
DIR=$(mktemp -d)
trap 'rm -rf "$DIR"' EXIT

# generate + describe
"$CLI" generate --n 25 --seed 9 --norm l1 --out "$DIR/p.txt"
"$CLI" describe --problem "$DIR/p.txt" | grep -q "L1"
"$CLI" describe --problem "$DIR/p.txt" | grep -q "25"

# solve + evaluate consistency
"$CLI" solve --problem "$DIR/p.txt" --solver greedy3 --k 3 --out "$DIR/s.txt"
"$CLI" evaluate --problem "$DIR/p.txt" --solution "$DIR/s.txt" | grep -q "consistent"

# compare smoke: table lists every requested solver
"$CLI" compare --problem "$DIR/p.txt" --k 2 --solvers greedy2,greedy3 > "$DIR/cmp.txt"
grep -q "greedy2" "$DIR/cmp.txt"
grep -q "greedy3" "$DIR/cmp.txt"

# certify smoke: certificate ratio line present
"$CLI" certify --problem "$DIR/p.txt" --solution "$DIR/s.txt" --pitch 0.25 | grep -q "certified ratio"

# simulate smoke
"$CLI" simulate --users 10 --slots 5 --solver greedy3 | grep -q "total reward"

# ls solver tier: solve with the polish tier, and the ls solution never
# undercuts the lazy seed it polishes
"$CLI" solve --problem "$DIR/p.txt" --solver ls --k 3 --out "$DIR/ls.txt"
"$CLI" evaluate --problem "$DIR/p.txt" --solution "$DIR/ls.txt" > "$DIR/lseval.txt"
grep -q "consistent" "$DIR/lseval.txt"
grep -q "ls(greedy2-lazy)" "$DIR/lseval.txt"
"$CLI" compare --problem "$DIR/p.txt" --k 3 --solvers greedy2-lazy,ls > "$DIR/lscmp.txt"
grep -q "^greedy2-lazy " "$DIR/lscmp.txt"
grep -q "^ls " "$DIR/lscmp.txt"

# serve-replay smoke: batched churn replay reports solve metrics and spans
"$CLI" serve-replay --users 120 --slots 4 --k 3 --churn 0.02 > "$DIR/serve.txt"
grep -q "incremental ratio" "$DIR/serve.txt"
grep -q "serve.batch" "$DIR/serve.txt"

# serve-replay on the ls tier reports the polish counters
"$CLI" serve-replay --users 120 --slots 3 --k 3 --solver ls > "$DIR/servels.txt"
grep -q "ls moves" "$DIR/servels.txt"
grep -q "ls evals" "$DIR/servels.txt"
grep -q "serve.solve.polish" "$DIR/servels.txt"

# serve-net self-test smoke: in-process server + client over loopback;
# --stats appends the scraped Prometheus exposition to the report.
"$CLI" serve-net --users 100 --slots 3 --churn 0.02 --stats > "$DIR/net.txt"
grep -q "requests failed *0" "$DIR/net.txt"
grep -q "frame errors *0" "$DIR/net.txt"
grep -Eq "^mmph_net_requests_total [1-9]" "$DIR/net.txt"
grep -Eq "^mmph_serve_submitted_total [1-9]" "$DIR/net.txt"

# serve-net two-process smoke: listen + connect across real sockets
sh "$(dirname "$0")/net_smoke.sh" "$CLI"

# kStats two-process smoke: listen, replay, scrape with `stats`
sh "$(dirname "$0")/stats_smoke.sh" "$CLI"

# WAL round trip: run a durable server twice over the same --wal-dir; the
# second run must recover exactly the epoch the first one reached, and
# wal-dump/wal-recover must agree on the recovered digest.
run_wal_server() {
  rm -f "$DIR/wport"
  "$CLI" serve-net --listen --port 0 --port-file "$DIR/wport" \
    --run-seconds 30 --wal-dir "$DIR/wal" > "$1" 2>&1 &
  WAL_PID=$!
  tries=0
  while [ ! -s "$DIR/wport" ]; do
    kill -0 "$WAL_PID" 2>/dev/null || { cat "$1"; exit 1; }
    tries=$((tries + 1))
    [ "$tries" -gt 50 ] && { echo "no port file"; cat "$1"; exit 1; }
    sleep 0.1
  done
}
run_wal_server "$DIR/wal1.log"
"$CLI" serve-net --connect 127.0.0.1 --port "$(cat "$DIR/wport")" \
  --users 40 --slots 2 --churn 0.05 > "$DIR/walclient.txt"
grep -q "requests failed *0" "$DIR/walclient.txt"
kill "$WAL_PID" && wait "$WAL_PID" 2>/dev/null || true
"$CLI" wal-recover --dir "$DIR/wal" > "$DIR/recover.txt"
grep -q "clean *yes" "$DIR/recover.txt"
DIGEST=$(grep "store digest" "$DIR/recover.txt" | grep -o "0x[0-9a-f]*")
"$CLI" wal-dump --dir "$DIR/wal" | grep -q "digest $DIGEST"
run_wal_server "$DIR/wal2.log"
kill "$WAL_PID" && wait "$WAL_PID" 2>/dev/null || true
grep -q "wal: recovered" "$DIR/wal2.log"
grep -q "digest $DIGEST" "$DIR/wal2.log"

# error handling: unknown command and unknown solver exit nonzero
if "$CLI" frobnicate 2>/dev/null; then echo "unknown command accepted"; exit 1; fi
if "$CLI" solve --problem "$DIR/p.txt" --solver nope --k 2 2>/dev/null; then
  echo "unknown solver accepted"; exit 1
fi
if "$CLI" evaluate --problem /does/not/exist --solution "$DIR/s.txt" 2>/dev/null; then
  echo "missing file accepted"; exit 1
fi

# typed argument validation: non-positive counts and k > n fail up front
# with a named-flag error instead of wrapping through size_t casts
if "$CLI" serve-replay --users 20 --slots 2 --store-shards 0 2>"$DIR/err1.txt"; then
  echo "--store-shards 0 accepted"; exit 1
fi
grep -q "store-shards must be >= 1" "$DIR/err1.txt"
if "$CLI" serve-net --loops 0 2>"$DIR/err2.txt"; then
  echo "--loops 0 accepted"; exit 1
fi
grep -q "loops must be >= 1" "$DIR/err2.txt"
if "$CLI" serve-net --loops -2 2>"$DIR/err3.txt"; then
  echo "negative --loops accepted"; exit 1
fi
grep -q "loops must be >= 1" "$DIR/err3.txt"
if "$CLI" solve --problem "$DIR/p.txt" --solver greedy3 --k 26 2>"$DIR/err4.txt"; then
  echo "k > n accepted"; exit 1
fi
grep -q "exceeds the instance size" "$DIR/err4.txt"
if "$CLI" serve-replay --users 20 --slots 2 --solver frob 2>"$DIR/err5.txt"; then
  echo "unknown solver tier accepted"; exit 1
fi
grep -q "unknown --solver" "$DIR/err5.txt"
if "$CLI" serve-replay --users 20 --slots 2 --solver greedy 2>"$DIR/err6.txt"; then
  echo "retired solver tier 'greedy' accepted"; exit 1
fi
grep -q "unknown --solver" "$DIR/err6.txt"
echo "cli_test OK"
