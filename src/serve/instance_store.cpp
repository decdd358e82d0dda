#include "mmph/serve/instance_store.hpp"

#include <algorithm>
#include <utility>

#include "mmph/support/assert.hpp"

namespace mmph::serve {

InstanceStore::InstanceStore(std::size_t dim) : dim_(dim) {
  MMPH_REQUIRE(dim_ >= 1, "InstanceStore: dim must be >= 1");
}

bool InstanceStore::upsert(const UserRecord& user) {
  MMPH_REQUIRE(user.interest.size() == dim_,
               "InstanceStore::upsert: interest dimension mismatch");
  MMPH_REQUIRE(user.weight > 0.0,
               "InstanceStore::upsert: weight must be positive");
  const auto it = index_.find(user.id);
  if (it != index_.end()) {
    // Update path: in-place writes into existing rows, nothing can throw.
    const std::size_t row = it->second;
    weights_[row] = user.weight;
    std::copy(user.interest.begin(), user.interest.end(),
              coords_.begin() + static_cast<std::ptrdiff_t>(row * dim_));
    ++epoch_;
    return false;
  }
  // Insert path: every allocation happens before the first mutation, so a
  // bad_alloc anywhere leaves the store untouched. The index entry goes in
  // last among the throwing steps — the push_backs after it are guaranteed
  // not to reallocate.
  reserve_rows(1);
  index_.emplace(user.id, ids_.size());
  ids_.push_back(user.id);
  weights_.push_back(user.weight);
  coords_.insert(coords_.end(), user.interest.begin(), user.interest.end());
  ++epoch_;
  return true;
}

void InstanceStore::reserve_rows(std::size_t rows) {
  const std::size_t want = ids_.size() + rows;
  if (want <= ids_.capacity() && want * dim_ <= coords_.capacity() &&
      want <= weights_.capacity()) {
    return;
  }
  // Keep the usual geometric growth so repeated single-row reserves stay
  // amortized O(1).
  const std::size_t target = std::max(want, ids_.capacity() * 2);
  ids_.reserve(target);
  weights_.reserve(target);
  coords_.reserve(target * dim_);
}

void InstanceStore::restore(std::uint64_t epoch,
                            std::vector<std::uint64_t> ids,
                            std::vector<double> weights,
                            std::vector<double> coords) {
  MMPH_REQUIRE(weights.size() == ids.size() &&
                   coords.size() == ids.size() * dim_,
               "InstanceStore::restore: row array size mismatch");
  MMPH_REQUIRE(epoch >= ids.size() && epoch >= epoch_,
               "InstanceStore::restore: epoch inconsistent with population");
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(ids.size());
  for (std::size_t row = 0; row < ids.size(); ++row) {
    MMPH_REQUIRE(weights[row] > 0.0,
                 "InstanceStore::restore: weight must be positive");
    MMPH_REQUIRE(index.emplace(ids[row], row).second,
                 "InstanceStore::restore: duplicate user id");
  }
  // All validation and allocation done; the swap block cannot throw.
  ids_ = std::move(ids);
  weights_ = std::move(weights);
  coords_ = std::move(coords);
  index_ = std::move(index);
  epoch_ = epoch;
}

bool InstanceStore::remove(std::uint64_t id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return false;
  const std::size_t row = it->second;
  const std::size_t last = ids_.size() - 1;
  if (row != last) {
    ids_[row] = ids_[last];
    weights_[row] = weights_[last];
    std::copy(coords_.begin() + static_cast<std::ptrdiff_t>(last * dim_),
              coords_.begin() + static_cast<std::ptrdiff_t>((last + 1) * dim_),
              coords_.begin() + static_cast<std::ptrdiff_t>(row * dim_));
    index_[ids_[row]] = row;
  }
  ids_.pop_back();
  weights_.pop_back();
  coords_.resize(coords_.size() - dim_);
  index_.erase(it);
  ++epoch_;
  return true;
}

bool InstanceStore::contains(std::uint64_t id) const {
  return index_.count(id) != 0;
}

std::optional<UserRecord> InstanceStore::find(std::uint64_t id) const {
  const auto it = index_.find(id);
  if (it == index_.end()) return std::nullopt;
  const std::size_t row = it->second;
  UserRecord rec;
  rec.id = id;
  rec.weight = weights_[row];
  rec.interest.assign(
      coords_.begin() + static_cast<std::ptrdiff_t>(row * dim_),
      coords_.begin() + static_cast<std::ptrdiff_t>((row + 1) * dim_));
  return rec;
}

std::optional<std::size_t> InstanceStore::row_of(std::uint64_t id) const {
  const auto it = index_.find(id);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

geo::ConstVec InstanceStore::point(std::size_t row) const {
  MMPH_REQUIRE(row < size(), "InstanceStore::point: row out of range");
  return geo::ConstVec(coords_.data() + row * dim_, dim_);
}

InstanceStore::Rows InstanceStore::lend_rows() noexcept {
  MMPH_ASSERT(weights_.size() == ids_.size(),
              "InstanceStore::lend_rows: rows already lent");
  return Rows{std::move(weights_), std::move(coords_)};
}

void InstanceStore::return_rows(Rows rows) noexcept {
  MMPH_ASSERT(rows.weights.size() == ids_.size() &&
                  rows.coords.size() == ids_.size() * dim_,
              "InstanceStore::return_rows: not the lent rows");
  weights_ = std::move(rows.weights);
  coords_ = std::move(rows.coords);
}

StoreSnapshot InstanceStore::concatenate(std::span<const InstanceStore> stores,
                                         std::uint64_t epoch) {
  MMPH_REQUIRE(!stores.empty(), "InstanceStore::concatenate: no stores");
  const std::size_t dim = stores.front().dim_;
  std::size_t rows = 0;
  for (const InstanceStore& store : stores) {
    MMPH_REQUIRE(store.dim_ == dim,
                 "InstanceStore::concatenate: dimension mismatch");
    rows += store.size();
  }
  StoreSnapshot out;
  out.epoch = epoch;
  std::vector<double> coords;
  coords.reserve(rows * dim);
  out.weights.reserve(rows);
  out.ids.reserve(rows);
  for (const InstanceStore& store : stores) {
    coords.insert(coords.end(), store.coords_.begin(), store.coords_.end());
    out.weights.insert(out.weights.end(), store.weights_.begin(),
                       store.weights_.end());
    out.ids.insert(out.ids.end(), store.ids_.begin(), store.ids_.end());
  }
  out.points = geo::PointSet(dim, std::move(coords));
  return out;
}

}  // namespace mmph::serve
