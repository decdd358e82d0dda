#pragma once

/// \file sharded_wal.hpp
/// \brief Cross-loop group-commit coordinator over per-shard WAL segments.
///
/// The region-sharded InstanceStore logs each shard's mutations to that
/// shard's own WalWriter (its own directory, its own epoch chain, its own
/// lsn sequence), preserving append-before-apply *per shard*. What the
/// single-writer design got for free — "one commit() covers the batch" —
/// now needs coordination: a batch may touch several shards, and its kOk
/// acks must not go out until every touched shard's log is as durable as
/// the fsync policy promises. ShardedWal::commit_all() is that barrier:
///
///   append(shard, record)*  ->  apply to stores  ->  commit_all()  ->  ack
///
/// commit_all walks the writers in shard order and fsyncs each dirty one.
/// A failure at ANY shard poisons EVERY writer (poison-all): a barrier
/// that half-committed cannot prove which shards' bytes are durable, so
/// the whole log set is declared divergent and the operator restarts
/// through recovery — the same poison-instead-of-limp discipline as the
/// single writer, widened to the set. Each successful barrier advances a
/// commit epoch, the cross-shard ordering token the replication follow-on
/// will stamp streamed batches with.
///
/// Layout on disk:
///   shards == 1:  <dir>/wal-*.mmpl              (the root layout, which
///                                                one WalWriter writes)
///   shards  > 1:  <dir>/shard-<s>/wal-*.mmpl    one subdir per shard
///
/// A ShardedWal can also lend one WalWriter that its caller owns: one
/// shard, that writer's own directory, no barrier hook. PlacementService
/// wraps a ServiceConfig::wal this way, so this class is the only log a
/// service writes through, at every store-shard count, and a one-shard
/// log is the same bytes whichever input it came from.
///
/// Recovery (recover_sharded) replays every shard directory independently
/// with the existing single-log recovery and re-derives the global epoch
/// as the sum of shard epochs (each applied element advanced exactly one
/// shard's epoch by one, so the sum is the global mutation count — the
/// same value the sharded store reports live).
///
/// Thread-safe the same way WalWriter is: each writer serializes
/// internally, and commit_all/poison_all take them in shard order.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "mmph/wal/recovery.hpp"
#include "mmph/wal/writer.hpp"

namespace mmph::wal {

/// Directory shard \p s of \p shards logs to: \p dir itself when shards
/// is 1 (legacy layout), "<dir>/shard-<s>" otherwise.
[[nodiscard]] std::string shard_wal_dir(const std::string& dir,
                                        std::size_t shard,
                                        std::size_t shards);

/// Per-shard recovery results plus the re-derived global view.
struct ShardedRecovery {
  std::vector<RecoveryResult> shards;
  /// Sum of the shard epochs == global mutation count (see file comment).
  std::uint64_t global_epoch = 0;
  /// Total recovered rows across shards.
  std::uint64_t rows = 0;
  bool clean = true;      ///< every shard replayed clean
  bool dir_found = false; ///< any shard directory (or the base dir) existed
};

/// Recovers every shard of a sharded log independently. \p shards is the
/// configured shard count (the directory layout is derived from it, so it
/// must match what the writer ran with — wal-recover exposes --shards for
/// exactly this reason).
[[nodiscard]] ShardedRecovery recover_sharded(const std::string& dir,
                                              std::size_t shards,
                                              std::uint16_t dim_hint = 0,
                                              FileOps& ops = FileOps::system());

/// Test-only barrier fault seam (serve::FaultHook-shaped; wal must not
/// depend on serve, so the alias is restated here). Consulted once per
/// shard inside commit_all at site "wal.barrier.fsync_fail"; returning
/// true makes that shard's barrier step fail exactly like a real fsync
/// error — poison-all, WalError out.
using BarrierFaultHook = std::function<bool(std::string_view site)>;

class ShardedWal {
 public:
  /// Opens one WalWriter per shard under \p base.dir (see shard_wal_dir),
  /// continuing each shard's chain from \p recovered. \p base is the
  /// shared policy (fsync, snapshot cadence, file_ops); per-shard dirs are
  /// derived from base.dir. \throws WalError when any directory or
  /// segment cannot be created.
  ShardedWal(WalConfig base, std::size_t shards,
             const ShardedRecovery& recovered,
             BarrierFaultHook barrier_hook = {});

  /// One shard over \p writer, which the caller owns and which must
  /// outlive this object: the root layout (its own dir), no barrier hook.
  /// This is how a service given one WalWriter logs through the same
  /// path as a service given a ShardedWal.
  explicit ShardedWal(WalWriter& writer);

  ShardedWal(const ShardedWal&) = delete;
  ShardedWal& operator=(const ShardedWal&) = delete;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return writers_.size();
  }
  [[nodiscard]] WalWriter& writer(std::size_t s) { return *writers_[s]; }
  [[nodiscard]] const WalWriter& writer(std::size_t s) const {
    return *writers_[s];
  }

  /// Appends to shard \p s (append-before-apply per shard). \throws
  /// WalError when that shard's writer is poisoned or the write fails.
  void append(std::size_t s, WalRecord& record);

  /// The cross-shard durability barrier (see file comment). On success
  /// the commit epoch advances; on any failure every writer is poisoned
  /// and WalError propagates.
  void commit_all();

  /// Barriers completed since construction.
  [[nodiscard]] std::uint64_t commit_epoch() const noexcept {
    return commit_epoch_.load(std::memory_order_relaxed);
  }

  /// True when any shard accumulated enough ops for a checkpoint.
  [[nodiscard]] bool wants_snapshot() const;
  /// True when any writer is poisoned (after which no barrier can pass).
  [[nodiscard]] bool failed() const;
  /// Poisons every writer (store/log divergence detected upstream).
  void poison_all(const std::string& reason);

  /// Describes every writer's mmph_wal_* series into \p registry,
  /// labeled `shard="s"` when there is more than one.
  void describe(obs::Registry& registry) const;

  /// Per-shard replication tail (the building block for streaming
  /// per-shard segments to replicas): encoded records of shard \p s with
  /// epochs > \p epoch.
  [[nodiscard]] WalWriter::TailResult tail_since(
      std::size_t s, std::uint64_t epoch,
      std::size_t max_bytes = 1u << 20) const;

 private:
  /// The writers by shard; they point into owned_, or at the one writer
  /// the caller lent.
  std::vector<WalWriter*> writers_;
  std::vector<std::unique_ptr<WalWriter>> owned_;
  BarrierFaultHook barrier_hook_;
  /// Serializes barriers: two concurrent commit_all calls must not
  /// interleave their per-shard fsyncs (each would see a half-barrier).
  mutable std::mutex barrier_mutex_;
  std::atomic<std::uint64_t> commit_epoch_{0};
};

}  // namespace mmph::wal
