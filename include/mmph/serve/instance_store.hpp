#pragma once

/// \file instance_store.hpp
/// \brief Mutable, versioned user population backing the placement service.
///
/// The paper's Problem is immutable: one snapshot of the attached users.
/// A serving deployment sees *churn* — users join, leave, and move in
/// interest space — so the service keeps the population in a store that
/// supports O(1) amortized insert/remove/update and hands out epoch-stamped
/// immutable snapshots for the solver. Every successful mutation advances
/// the epoch, so snapshot epochs are strictly monotone across state changes
/// and a consumer can tell "nothing changed" from "re-solve needed" by
/// comparing epochs.
///
/// Storage is structure-of-arrays (ids / weights / row-major coordinates)
/// with swap-remove, matching geo::PointSet's layout so a snapshot is one
/// contiguous copy.

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mmph/geometry/point_set.hpp"

namespace mmph::serve {

/// One user row as the serving layer sees it (sim::User minus the
/// simulator-only bookkeeping).
struct UserRecord {
  std::uint64_t id = 0;
  std::vector<double> interest;
  double weight = 1.0;
};

/// Epoch-stamped immutable copy of the population. ids[i] owns row i of
/// points/weights.
struct StoreSnapshot {
  std::uint64_t epoch = 0;
  geo::PointSet points{1};
  std::vector<double> weights;
  std::vector<std::uint64_t> ids;

  [[nodiscard]] std::size_t size() const noexcept { return weights.size(); }
};

class InstanceStore {
 public:
  /// Empty store of users with \p dim-dimensional interests (dim >= 1).
  explicit InstanceStore(std::size_t dim);

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::size_t size() const noexcept { return ids_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ids_.empty(); }

  /// Version counter: advances on every successful mutation.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// Inserts or overwrites the user. Returns true on insert, false on
  /// update. \throws InvalidArgument on interest-dimension mismatch or
  /// non-positive weight. Strong guarantee: on any throw (including
  /// allocation failure) the store — rows, index, and epoch — is exactly
  /// what it was before the call.
  bool upsert(const UserRecord& user);

  /// Pre-grows all row storage so the next \p rows upsert-inserts cannot
  /// allocate (and therefore cannot throw past validation).
  void reserve_rows(std::size_t rows);

  /// Replaces the whole population in one step (WAL recovery / replica
  /// snapshot install). \p coords is row-major, ids.size() * dim(). The
  /// epoch must be >= ids.size() (each resident row cost at least one
  /// mutation) and must not move backwards. Strong guarantee. Resets the
  /// churn counter — callers that need a re-solve should force one.
  /// \throws InvalidArgument on size mismatch, duplicate or invalid rows,
  /// or an inconsistent epoch.
  void restore(std::uint64_t epoch, std::vector<std::uint64_t> ids,
               std::vector<double> weights, std::vector<double> coords);

  /// Removes the user (swap-remove, O(1)). Returns false for unknown ids
  /// (no epoch change).
  bool remove(std::uint64_t id);

  [[nodiscard]] bool contains(std::uint64_t id) const;
  [[nodiscard]] std::optional<UserRecord> find(std::uint64_t id) const;

  /// Live row number of the user, or nullopt for unknown ids. Row numbers
  /// are the point indices a snapshot's PointSet (and therefore a spatial
  /// index mirroring the store) uses; they change when a later swap-remove
  /// relocates the last row.
  [[nodiscard]] std::optional<std::size_t> row_of(std::uint64_t id) const;

  /// Interest point of live row \p row; valid until the next mutation.
  [[nodiscard]] geo::ConstVec point(std::size_t row) const;

  /// Mutations (inserts + updates + removes) since the last snapshot().
  [[nodiscard]] std::uint64_t churn_since_snapshot() const noexcept {
    return churn_since_snapshot_;
  }

  /// O(n) immutable copy stamped with the current epoch; resets the churn
  /// counter. Epochs of successive snapshots are non-decreasing, and
  /// strictly increasing whenever a mutation happened in between.
  [[nodiscard]] StoreSnapshot snapshot();

  /// Raw row arrays in live row order (ids / weights / row-major coords),
  /// for WAL checkpointing. Unlike snapshot() this is a pure read: no
  /// churn-counter reset, no PointSet construction. Row order is the
  /// store's history-dependent order — the recovery invariant is bitwise
  /// equality, so the order must round-trip exactly.
  void export_rows(std::vector<std::uint64_t>& ids,
                   std::vector<double>& weights,
                   std::vector<double>& coords) const;

 private:
  std::size_t dim_;
  std::vector<std::uint64_t> ids_;
  std::vector<double> weights_;
  std::vector<double> coords_;  ///< row-major, ids_.size() * dim_
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::uint64_t epoch_ = 0;
  std::uint64_t churn_since_snapshot_ = 0;
};

}  // namespace mmph::serve
