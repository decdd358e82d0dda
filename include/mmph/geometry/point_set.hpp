#pragma once

/// \file point_set.hpp
/// \brief Structure-of-arrays container for n points in R^m.
///
/// Points are stored contiguously (row-major, one row per point) so the
/// reward kernels stream over them cache-friendlily; a point is viewed as a
/// std::span rather than copied.

#include <cstddef>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "mmph/geometry/vec.hpp"
#include "mmph/support/assert.hpp"

namespace mmph::geo {

/// Axis-aligned bounding box (lo/hi per dimension).
struct Box {
  std::vector<double> lo;
  std::vector<double> hi;

  [[nodiscard]] std::size_t dim() const noexcept { return lo.size(); }

  /// Per-dimension midpoint.
  [[nodiscard]] std::vector<double> center() const;

  /// True when \p p lies inside the closed box.
  [[nodiscard]] bool contains(ConstVec p, double tol = 0.0) const;
};

/// A dense, fixed-dimension set of points.
class PointSet {
 public:
  /// Empty set of points in R^dim; dim must be >= 1.
  explicit PointSet(std::size_t dim);

  /// Builds from row data: coords.size() must be a multiple of dim.
  PointSet(std::size_t dim, std::vector<double> coords);

  /// Convenience: builds a 2-D/3-D/... set from an initializer list of rows.
  /// All rows must have the same nonzero length.
  static PointSet from_rows(
      std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::size_t size() const noexcept {
    return coords_.size() / dim_;
  }
  [[nodiscard]] bool empty() const noexcept { return coords_.empty(); }

  void reserve(std::size_t n) { coords_.reserve(n * dim_); }

  /// Appends a point; p.size() must equal dim().
  void push_back(ConstVec p);

  /// Read-only view of point i.
  [[nodiscard]] ConstVec operator[](std::size_t i) const {
    MMPH_ASSERT(i < size(), "PointSet: index out of range");
    return ConstVec(coords_.data() + i * dim_, dim_);
  }

  /// Mutable view of point i.
  [[nodiscard]] MutVec mutable_point(std::size_t i) {
    MMPH_ASSERT(i < size(), "PointSet: index out of range");
    return MutVec(coords_.data() + i * dim_, dim_);
  }

  /// Raw row-major coordinate block (size() * dim() doubles).
  [[nodiscard]] std::span<const double> raw() const noexcept {
    return coords_;
  }

  /// Moves the raw coordinate block out of an expiring set, uncopied.
  [[nodiscard]] std::vector<double> release() && noexcept {
    return std::move(coords_);
  }

  /// Tight axis-aligned bounding box; requires a nonempty set.
  [[nodiscard]] Box bounding_box() const;

  /// Arithmetic mean of the points; requires a nonempty set.
  [[nodiscard]] std::vector<double> centroid() const;

 private:
  std::size_t dim_;
  std::vector<double> coords_;
};

}  // namespace mmph::geo
