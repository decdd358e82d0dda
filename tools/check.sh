#!/bin/sh
# Tier-1 gate: configure, build, and run the full test suite — the exact
# line CI and reviewers run. Usage:
#
#   tools/check.sh              # plain build + ctest
#   MMPH_SANITIZE=ON tools/check.sh   # same, under ASan/UBSan
#   tools/check.sh perf-smoke   # build + perf_kernels at n=1000 (fast
#                               # kernel-speedup sanity; self-checks
#                               # blocked-vs-scalar agreement)
#   tools/check.sh net-smoke    # build + two-process socket smoke test
#                               # (serve-net --listen / --connect over an
#                               # ephemeral loopback port)
#   tools/check.sh net-fuzz     # build + run the wire-decoder fuzz corpus
#                               # (honors MMPH_SANITIZE=ON for ASan/UBSan)
#   tools/check.sh stats-smoke  # build + two-process metrics smoke test
#                               # (serve-net --listen scraped by `stats`
#                               # over an ephemeral loopback port)
#   tools/check.sh chaos        # build + chaos_runner seed sweep: 750
#                               # deterministic fault schedules (400 serve
#                               # + 100 net + 250 wal) through the full
#                               # stack; any failure prints its
#                               # reproducing seed.
#                               # MMPH_SANITIZE=ON tools/check.sh chaos
#                               # is the pre-merge gate for serve/net/wal
#                               # changes (same sweep under ASan/UBSan).
#   tools/check.sh wal          # build + every wal-labeled test (codec,
#                               # crash-point matrix, replication,
#                               # atomicity) — the fast WAL gate; the
#                               # chaos sweep above is the thorough one.
#   tools/check.sh index        # build + every spatial-labeled test (the
#                               # mmph::spatial query/churn contracts, the
#                               # indexed-vs-unindexed solver differential
#                               # corpus, the serve-path warm-index test).
#                               # MMPH_SANITIZE=ON tools/check.sh index
#                               # runs the same gate under ASan/UBSan —
#                               # the pre-merge gate for index changes.
#   tools/check.sh shards       # region-sharded store gate: the shard
#                               # unit/wal suites, the golden replay
#                               # digests (--store-shards 1 bit-identity
#                               # and the 4-shard stability pins), a
#                               # chaos_runner --mode shards sweep at
#                               # shards {1,4}, and a TSan build+run of
#                               # the shard-labeled suites. Pre-merge
#                               # gate for sharded-store / sharded-WAL /
#                               # commit-barrier changes.
#   tools/check.sh quality      # solver-quality gate: the quality-labeled
#                               # ctest tier (210-instance differential
#                               # corpus pinning exhaustive >= ls >= lazy
#                               # >= Thm-2 floor and ls <= certified
#                               # bound, plus a 100-seed LS determinism
#                               # sweep) and a chaos_runner --mode ls
#                               # sweep (ls.eval_throw fault schedules).
#                               # MMPH_SANITIZE=ON tools/check.sh quality
#                               # is the pre-merge gate for mmph::ls /
#                               # bounds / solver changes (same run under
#                               # ASan/UBSan).
#   tools/check.sh bench-smoke  # build + `perfbench/run.py --smoke`: every
#                               # benchmark workload briefly, untraced and
#                               # traced, with all of its output checks
#                               # (exactly-once replies, epochs, objective
#                               # against the mirror, durability) and the
#                               # metric names/units of BENCHMARK.json.
#                               # The benchmark builds into
#                               # $BUILD_DIR/perfbench.
#   tools/check.sh tsan         # ThreadSanitizer build (MMPH_TSAN=ON, own
#                               # build-tsan dir) + the net/chaos suites +
#                               # a multi-loop chaos_runner net sweep at
#                               # --loops 4. Pre-merge gate for any change
#                               # to the multi-loop NetServer or anything
#                               # its event loops touch (metrics, serve
#                               # funnel, WAL streaming).
#
# Extra args are forwarded to ctest: tools/check.sh -R serve filters by
# name, tools/check.sh -L unit filters by label (labels: unit, net,
# slow, chaos, wal, spatial, quality, unit_shards, wal_shards,
# net_chaos — see
# tests/CMakeLists.txt; -L matches by regex, so -L shards selects the
# shard suites).
set -e
cd "$(dirname "$0")/.."

SANITIZE="${MMPH_SANITIZE:-OFF}"
BUILD_DIR="${BUILD_DIR:-build}"

# tsan mode uses its own build tree (TSan objects cannot mix with plain
# or ASan ones) and forces MMPH_TSAN=ON / MMPH_SANITIZE=OFF.
if [ "$1" = "tsan" ]; then
  BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"
  cmake -B "$BUILD_DIR" -S . -DMMPH_TSAN=ON -DMMPH_SANITIZE=OFF
  cmake --build "$BUILD_DIR" -j
  ( cd "$BUILD_DIR" &&     ctest --output-on-failure -L 'net|chaos' -j "$(nproc 2>/dev/null || echo 4)" )
  exec "$BUILD_DIR/tests/chaos_runner" --mode net --net-seeds 25 --loops 4
fi

cmake -B "$BUILD_DIR" -S . -DMMPH_SANITIZE="$SANITIZE"
cmake --build "$BUILD_DIR" -j

if [ "$1" = "perf-smoke" ]; then
  exec "$BUILD_DIR/bench/perf_kernels" --n 1000 --out "$BUILD_DIR/BENCH_kernels.json"
fi

if [ "$1" = "net-smoke" ]; then
  exec sh tests/net_smoke.sh "$BUILD_DIR/tools/mmph_cli"
fi

if [ "$1" = "stats-smoke" ]; then
  exec sh tests/stats_smoke.sh "$BUILD_DIR/tools/mmph_cli"
fi

if [ "$1" = "bench-smoke" ]; then
  CARGO_TARGET_DIR="$BUILD_DIR/perfbench" exec python3 perfbench/run.py --smoke
fi

if [ "$1" = "net-fuzz" ]; then
  "$BUILD_DIR/tests/wire_fuzz_test"
  exec "$BUILD_DIR/tests/wire_test"
fi

if [ "$1" = "chaos" ]; then
  shift
  exec "$BUILD_DIR/tests/chaos_runner" "$@"
fi

if [ "$1" = "shards" ]; then
  ( cd "$BUILD_DIR" && \
    ctest --output-on-failure -L shards -j "$(nproc 2>/dev/null || echo 4)" && \
    ctest --output-on-failure -R 'multi_loop_test|store_shard_service_test' \
      -j "$(nproc 2>/dev/null || echo 4)" )
  "$BUILD_DIR/tests/chaos_runner" --mode shards --shard-seeds 100
  TSAN_DIR="${TSAN_BUILD_DIR:-build-tsan}"
  cmake -B "$TSAN_DIR" -S . -DMMPH_TSAN=ON -DMMPH_SANITIZE=OFF
  cmake --build "$TSAN_DIR" -j
  ( cd "$TSAN_DIR" && \
    exec ctest --output-on-failure -L shards -j "$(nproc 2>/dev/null || echo 4)" )
  exit $?
fi

if [ "$1" = "quality" ]; then
  ( cd "$BUILD_DIR" && \
    ctest --output-on-failure -L quality -j "$(nproc 2>/dev/null || echo 4)" )
  exec "$BUILD_DIR/tests/chaos_runner" --mode ls --ls-seeds 100
fi

if [ "$1" = "wal" ]; then
  cd "$BUILD_DIR"
  exec ctest --output-on-failure -L wal -j "$(nproc 2>/dev/null || echo 4)"
fi

if [ "$1" = "index" ]; then
  cd "$BUILD_DIR"
  exec ctest --output-on-failure -L spatial -j "$(nproc 2>/dev/null || echo 4)"
fi

cd "$BUILD_DIR"
exec ctest --output-on-failure -j "$(nproc 2>/dev/null || echo 4)" "$@"
