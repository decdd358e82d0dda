#include "mmph/serve/sharded_store.hpp"

#include <string>
#include <utility>

#include "mmph/support/assert.hpp"
#include "mmph/support/error.hpp"

namespace mmph::serve {

ShardedInstanceStore::ShardedInstanceStore(std::size_t dim,
                                           std::size_t shards,
                                           double region_cell)
    : dim_(dim), regions_(dim, region_cell, shards) {
  MMPH_REQUIRE(shards >= 1, "ShardedInstanceStore: shards must be >= 1");
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) shards_.emplace_back(dim_);
  cache_.resize(shards, StoreSnapshot{0, geo::PointSet(dim_), {}, {}});
  cache_valid_.assign(shards, false);
}

std::size_t ShardedInstanceStore::size() const noexcept {
  return owner_.size();
}

std::uint64_t ShardedInstanceStore::epoch() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& s : shards_) sum += s.epoch();
  return sum;
}

std::optional<std::size_t> ShardedInstanceStore::shard_of_id(
    std::uint64_t id) const {
  auto it = owner_.find(id);
  if (it == owner_.end()) return std::nullopt;
  return it->second;
}

ShardedInstanceStore::UpsertRoute ShardedInstanceStore::route_upsert(
    const UserRecord& user) const {
  if (user.interest.size() != dim_) {
    throw InvalidArgument("ShardedInstanceStore: interest dimension " +
                          std::to_string(user.interest.size()) +
                          " != store dim " + std::to_string(dim_));
  }
  UpsertRoute route;
  route.to = regions_.shard_of(
      geo::ConstVec(user.interest.data(), user.interest.size()));
  route.from = shard_of_id(user.id);
  return route;
}

ShardedInstanceStore::UpsertRoute ShardedInstanceStore::upsert(
    const UserRecord& user) {
  UpsertRoute route = route_upsert(user);
  if (route.is_move()) {
    // Remove-then-insert across the region boundary. The insert is
    // validated by route_upsert (dim) and by InstanceStore (weight), so
    // pre-validate the weight before the remove mutates anything.
    if (!(user.weight > 0.0)) {
      throw InvalidArgument("ShardedInstanceStore: weight must be positive");
    }
    shards_[*route.from].remove(user.id);
    owner_.erase(user.id);
    shards_[route.to].upsert(user);
    owner_.emplace(user.id, route.to);
    route.inserted = true;  // the target shard gained a row
  } else {
    route.inserted = shards_[route.to].upsert(user);
    owner_[user.id] = route.to;
  }
  return route;
}

std::optional<std::size_t> ShardedInstanceStore::remove(std::uint64_t id) {
  auto it = owner_.find(id);
  if (it == owner_.end()) return std::nullopt;
  const std::size_t s = it->second;
  const bool removed = shards_[s].remove(id);
  MMPH_ASSERT(removed, "ShardedInstanceStore: owner map out of sync");
  owner_.erase(it);
  return s;
}

std::optional<UserRecord> ShardedInstanceStore::find(std::uint64_t id) const {
  auto it = owner_.find(id);
  if (it == owner_.end()) return std::nullopt;
  return shards_[it->second].find(id);
}

void ShardedInstanceStore::restore_shard(std::size_t s, std::uint64_t epoch,
                                         std::vector<std::uint64_t> ids,
                                         std::vector<double> weights,
                                         std::vector<double> coords) {
  MMPH_REQUIRE(s < shards_.size(), "ShardedInstanceStore: shard out of range");
  for (std::uint64_t id : ids) {
    auto it = owner_.find(id);
    if (it != owner_.end() && it->second != s) {
      throw InvalidArgument(
          "ShardedInstanceStore: restore_shard id " + std::to_string(id) +
          " already resident in shard " + std::to_string(it->second));
    }
  }
  // Drop the shard's old ids from the owner map, install the new set.
  for (auto it = owner_.begin(); it != owner_.end();) {
    if (it->second == s) {
      it = owner_.erase(it);
    } else {
      ++it;
    }
  }
  shards_[s].restore(epoch, ids, std::move(weights), std::move(coords));
  for (std::uint64_t id : ids) owner_.emplace(id, s);
  cache_valid_[s] = false;
}

std::uint64_t ShardedInstanceStore::churn_since_snapshot() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& s : shards_) sum += s.churn_since_snapshot();
  return sum;
}

const StoreSnapshot& ShardedInstanceStore::shard_snapshot(std::size_t s) {
  MMPH_REQUIRE(s < shards_.size(), "ShardedInstanceStore: shard out of range");
  if (!cache_valid_[s] || cache_[s].epoch != shards_[s].epoch()) {
    cache_[s] = shards_[s].snapshot();
    cache_valid_[s] = true;
  }
  return cache_[s];
}

StoreSnapshot ShardedInstanceStore::global_snapshot() {
  // One shard: its snapshot is the global one; copy it once, uncached.
  if (shards_.size() == 1) return shards_[0].snapshot();
  StoreSnapshot out;
  out.epoch = epoch();
  out.points = geo::PointSet(dim_);
  out.points.reserve(size());
  out.weights.reserve(size());
  out.ids.reserve(size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const StoreSnapshot& part = shard_snapshot(s);
    for (std::size_t i = 0; i < part.size(); ++i) {
      out.points.push_back(part.points[i]);
    }
    out.weights.insert(out.weights.end(), part.weights.begin(),
                       part.weights.end());
    out.ids.insert(out.ids.end(), part.ids.begin(), part.ids.end());
  }
  return out;
}

std::vector<std::pair<std::size_t, std::size_t>>
ShardedInstanceStore::shard_row_ranges() const {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  ranges.reserve(shards_.size());
  std::size_t begin = 0;
  for (const auto& s : shards_) {
    ranges.emplace_back(begin, begin + s.size());
    begin += s.size();
  }
  return ranges;
}

}  // namespace mmph::serve
