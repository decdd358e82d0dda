#pragma once

/// \file sharded_store.hpp
/// \brief InstanceStore partitioned by interest-space region.
///
/// The serve path's scaling ceiling (ROADMAP) is the single InstanceStore
/// every loop funnels into. ShardedInstanceStore splits the population
/// into `shards` disjoint InstanceStores, routing each user by the
/// spatial::RegionMap of its interest point — the same grid cells the
/// solver's UniformGridIndex buckets by — so a shard is a spatially
/// coherent sub-population that can be solved on its own and merged
/// globally (ShardedSolver's existing merge).
///
/// Contracts:
///   - A user's shard is a pure function of its interest point. An upsert
///     that moves a user across a region boundary is a remove from the
///     old shard plus an insert into the new one (two shard-epoch ticks —
///     the WAL logs it exactly that way, one record per shard).
///   - The global epoch is the SUM of the shard epochs: every shard
///     mutation advances exactly one shard's epoch by one, so the sum is
///     strictly monotone per applied element, exactly like the unsharded
///     epoch (cross-region moves count two elements, matching their two
///     log records).
///   - An id lives in at most one shard, and the shards' own id maps are
///     the only ones: shard_of_id, contains, find and restore_shard's
///     foreign-id check ask the shards (at most S lookups at S shards),
///     and size() sums them. A mutation writes one map, not two.
///   - shards == 1 is the bit-identity mode: one InstanceStore receives
///     the same calls in the same order as the unsharded service, and
///     global_snapshot() is that store's snapshot verbatim.
///   - Per-shard snapshots are cached by epoch: a solve after localized
///     churn re-copies only the shards that actually moved.
///
/// Not thread-safe; the owner (PlacementService) serializes access, the
/// same discipline as InstanceStore.

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "mmph/serve/instance_store.hpp"
#include "mmph/spatial/region_map.hpp"

namespace mmph::serve {

class ShardedInstanceStore {
 public:
  /// \p region_cell is the RegionMap cell edge (serve passes the coverage
  /// radius). \p shards >= 1.
  ShardedInstanceStore(std::size_t dim, std::size_t shards,
                       double region_cell);

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  /// Sum of shard epochs (see file comment): monotone, +1 per element.
  [[nodiscard]] std::uint64_t epoch() const noexcept;

  [[nodiscard]] InstanceStore& shard(std::size_t s) { return shards_[s]; }
  [[nodiscard]] const InstanceStore& shard(std::size_t s) const {
    return shards_[s];
  }
  [[nodiscard]] const spatial::RegionMap& region_map() const noexcept {
    return regions_;
  }

  /// Shard the point's region belongs to (routing for inserts).
  [[nodiscard]] std::size_t shard_of_point(geo::ConstVec p) const {
    return regions_.shard_of(p);
  }
  /// Shard currently holding the id, or nullopt for unknown ids. Asks
  /// the shards in order: at most shard_count() lookups, one at one shard.
  [[nodiscard]] std::optional<std::size_t> shard_of_id(
      std::uint64_t id) const;

  /// What upsert(\p user) would do, without doing it. Routing for the WAL:
  /// the service logs the remove/upsert records this implies *before*
  /// applying. `from == to` (or no `from`) is a plain one-shard op.
  struct UpsertRoute {
    std::size_t to = 0;                     ///< shard the point hashes to
    std::optional<std::size_t> from{};      ///< shard the id lives in now
    /// Filled by upsert(): true when the target shard gained a row (fresh
    /// id, or the insert half of a region move); false for an in-place
    /// update. route_upsert() leaves it false.
    bool inserted = false;
    [[nodiscard]] bool is_move() const noexcept {
      return from.has_value() && *from != to;
    }
  };
  [[nodiscard]] UpsertRoute route_upsert(const UserRecord& user) const;

  /// Inserts or overwrites, routing by region; cross-region moves
  /// remove-then-insert. Returns the route taken. Strong guarantee for
  /// one-shard ops; a cross-region move that throws on the insert leaves
  /// the old shard's remove applied (callers poison the WAL on that
  /// divergence, the established discipline).
  UpsertRoute upsert(const UserRecord& user);

  /// Removes the user from whichever shard holds it. Returns that shard,
  /// or nullopt for unknown ids (no epoch change).
  std::optional<std::size_t> remove(std::uint64_t id);

  [[nodiscard]] bool contains(std::uint64_t id) const {
    return shard_of_id(id).has_value();
  }
  [[nodiscard]] std::optional<UserRecord> find(std::uint64_t id) const;

  /// Replaces one shard's population (WAL recovery; shards recover
  /// independently). Strong guarantee. \throws InvalidArgument when an id
  /// is already resident in another shard.
  void restore_shard(std::size_t s, std::uint64_t epoch,
                     std::vector<std::uint64_t> ids,
                     std::vector<double> weights,
                     std::vector<double> coords);

  /// Sum of shard churn counters (mutations since each last snapshot).
  [[nodiscard]] std::uint64_t churn_since_snapshot() const noexcept;

  /// Epoch-cached copy of one shard (re-copied only when the shard's
  /// epoch moved since the last call).
  [[nodiscard]] const StoreSnapshot& shard_snapshot(std::size_t s);

  /// Concatenation of the shard snapshots in shard order, stamped with
  /// the global epoch. Rows of shard s occupy one contiguous range (see
  /// shard_row_ranges). For shard_count() == 1 this is shard 0's
  /// snapshot verbatim (bit-identity mode).
  [[nodiscard]] StoreSnapshot global_snapshot();

  /// [begin, end) row range of each shard inside global_snapshot(), in
  /// shard order (empty shards yield empty ranges). These are the
  /// per-shard solve groups handed to ShardedSolver.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
  shard_row_ranges() const;

 private:
  std::size_t dim_;
  spatial::RegionMap regions_;
  /// The only id map is each shard's own: an id lives in one shard.
  std::vector<InstanceStore> shards_;
  /// Per-shard snapshot cache (epoch-checked; epoch 0 + empty = unset).
  std::vector<StoreSnapshot> cache_;
  std::vector<bool> cache_valid_;
};

}  // namespace mmph::serve
