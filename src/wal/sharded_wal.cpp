#include "mmph/wal/sharded_wal.hpp"

#include <cerrno>
#include <utility>

#include "mmph/support/assert.hpp"

namespace mmph::wal {

std::string shard_wal_dir(const std::string& dir, std::size_t shard,
                          std::size_t shards) {
  MMPH_REQUIRE(shard < shards, "shard_wal_dir: shard out of range");
  if (shards == 1) return dir;
  return dir + "/shard-" + std::to_string(shard);
}

ShardedRecovery recover_sharded(const std::string& dir, std::size_t shards,
                                std::uint16_t dim_hint, FileOps& ops) {
  MMPH_REQUIRE(shards >= 1, "recover_sharded: shards must be >= 1");
  ShardedRecovery out;
  out.shards.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    out.shards.push_back(
        recover(shard_wal_dir(dir, s, shards), dim_hint, ops));
    const RecoveryResult& part = out.shards.back();
    out.global_epoch += part.store.epoch;
    out.rows += part.store.ids.size();
    out.clean = out.clean && part.clean;
    out.dir_found = out.dir_found || part.dir_found;
  }
  if (shards > 1 && !out.dir_found) {
    // No shard dir existed; the base dir itself may still (empty sharded
    // deployment after mkdir but before any write).
    out.dir_found = ops.list(dir).has_value();
  }
  return out;
}

ShardedWal::ShardedWal(WalConfig base, std::size_t shards,
                       const ShardedRecovery& recovered,
                       BarrierFaultHook barrier_hook)
    : barrier_hook_(std::move(barrier_hook)) {
  MMPH_REQUIRE(shards >= 1, "ShardedWal: shards must be >= 1");
  // An empty recovery result means a fresh log set (every shard starts at
  // epoch/lsn zero); a non-empty one must match the shard count exactly.
  MMPH_REQUIRE(recovered.shards.empty() || recovered.shards.size() == shards,
               "ShardedWal: recovery result is for a different shard count");
  FileOps& ops = base.file_ops != nullptr ? *base.file_ops : FileOps::system();
  if (shards > 1) {
    // The per-shard writers mkdir their own subdirs; the base dir is ours.
    if (ops.mkdir(base.dir) < 0 && errno != EEXIST) {
      throw WalError("sharded wal: mkdir " + base.dir + " failed");
    }
  }
  owned_.reserve(shards);
  writers_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    WalConfig config = base;
    config.dir = shard_wal_dir(base.dir, s, shards);
    const std::uint64_t base_epoch =
        recovered.shards.empty() ? 0 : recovered.shards[s].store.epoch;
    const std::uint64_t base_lsn =
        recovered.shards.empty() ? 0 : recovered.shards[s].last_lsn;
    owned_.push_back(
        std::make_unique<WalWriter>(std::move(config), base_epoch, base_lsn));
    writers_.push_back(owned_.back().get());
  }
}

ShardedWal::ShardedWal(WalWriter& writer) : writers_{&writer} {}

void ShardedWal::append(std::size_t s, WalRecord& record) {
  MMPH_REQUIRE(s < writers_.size(), "ShardedWal: shard out of range");
  writers_[s]->append(record);
}

void ShardedWal::commit_all() {
  std::lock_guard<std::mutex> lock(barrier_mutex_);
  for (std::size_t s = 0; s < writers_.size(); ++s) {
    try {
      if (barrier_hook_ && barrier_hook_("wal.barrier.fsync_fail")) {
        throw WalError("wal: injected barrier fsync failure at shard " +
                       std::to_string(s));
      }
      writers_[s]->commit();
    } catch (const WalError&) {
      // Half a barrier is no barrier: shards before s fsync'd, s did not.
      // Nothing appended under this barrier may be acked, so the whole
      // writer set is declared divergent.
      poison_all("group-commit barrier failed at shard " + std::to_string(s));
      throw;
    }
  }
  commit_epoch_.fetch_add(1, std::memory_order_relaxed);
}

bool ShardedWal::wants_snapshot() const {
  for (const WalWriter* w : writers_) {
    if (w->wants_snapshot()) return true;
  }
  return false;
}

bool ShardedWal::failed() const {
  for (const WalWriter* w : writers_) {
    if (w->failed()) return true;
  }
  return false;
}

void ShardedWal::poison_all(const std::string& reason) {
  for (WalWriter* w : writers_) w->poison(reason);
}

void ShardedWal::describe(obs::Registry& registry) const {
  if (writers_.size() == 1) {
    writers_[0]->describe(registry);
    return;
  }
  for (std::size_t s = 0; s < writers_.size(); ++s) {
    writers_[s]->describe(registry, {{"shard", std::to_string(s)}});
  }
}

WalWriter::TailResult ShardedWal::tail_since(std::size_t s,
                                             std::uint64_t epoch,
                                             std::size_t max_bytes) const {
  MMPH_REQUIRE(s < writers_.size(), "ShardedWal: shard out of range");
  return writers_[s]->tail_since(epoch, max_bytes);
}

}  // namespace mmph::wal
