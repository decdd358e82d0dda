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
}

std::size_t ShardedInstanceStore::size() const noexcept {
  std::size_t sum = 0;
  for (const auto& s : shards_) sum += s.size();
  return sum;
}

std::uint64_t ShardedInstanceStore::epoch() const noexcept {
  std::uint64_t sum = 0;
  for (const auto& s : shards_) sum += s.epoch();
  return sum;
}

std::optional<std::size_t> ShardedInstanceStore::shard_of_id(
    std::uint64_t id) const {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].contains(id)) return s;
  }
  return std::nullopt;
}

ShardedInstanceStore::UpsertRoute ShardedInstanceStore::upsert(
    const UserRecord& user) {
  if (user.interest.size() != dim_) {
    throw InvalidArgument("ShardedInstanceStore: interest dimension " +
                          std::to_string(user.interest.size()) +
                          " != store dim " + std::to_string(dim_));
  }
  UpsertRoute route;
  route.to = regions_.shard_of(
      geo::ConstVec(user.interest.data(), user.interest.size()));
  route.from = shard_of_id(user.id);
  if (route.is_move()) {
    // Remove-then-insert across the region boundary. The insert is
    // validated above (dim) and by InstanceStore (weight), so pre-validate
    // the weight before the remove mutates anything.
    if (!(user.weight > 0.0)) {
      throw InvalidArgument("ShardedInstanceStore: weight must be positive");
    }
    shards_[*route.from].remove(user.id);
    shards_[route.to].upsert(user);
    route.inserted = true;  // the target shard gained a row
  } else {
    route.inserted = shards_[route.to].upsert(user);
  }
  return route;
}

std::optional<std::size_t> ShardedInstanceStore::remove(std::uint64_t id) {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].remove(id)) return s;
  }
  return std::nullopt;
}

std::optional<UserRecord> ShardedInstanceStore::find(std::uint64_t id) const {
  const std::optional<std::size_t> s = shard_of_id(id);
  if (!s.has_value()) return std::nullopt;
  return shards_[*s].find(id);
}

void ShardedInstanceStore::restore_shard(std::size_t s, std::uint64_t epoch,
                                         std::vector<std::uint64_t> ids,
                                         std::vector<double> weights,
                                         std::vector<double> coords) {
  MMPH_REQUIRE(s < shards_.size(), "ShardedInstanceStore: shard out of range");
  for (std::uint64_t id : ids) {
    for (std::size_t other = 0; other < shards_.size(); ++other) {
      if (other != s && shards_[other].contains(id)) {
        throw InvalidArgument(
            "ShardedInstanceStore: restore_shard id " + std::to_string(id) +
            " already resident in shard " + std::to_string(other));
      }
    }
  }
  shards_[s].restore(epoch, std::move(ids), std::move(weights),
                     std::move(coords));
}

}  // namespace mmph::serve
