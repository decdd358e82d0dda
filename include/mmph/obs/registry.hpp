#pragma once

/// \file registry.hpp
/// \brief Family-keyed metric registry with Prometheus-style text exposition.
///
/// A Registry is built per scrape: each component keeps its instruments as
/// plain members and describes them into a fresh Registry, which then
/// renders the text. Every series is keyed by its family name and label
/// set, so a family's `# HELP`/`# TYPE` header is written once, with all of
/// its series grouped under it, whatever order the series were added in.
/// Families are written in first-add order and series in add order within
/// their family.
///
/// add() copies the instrument's current value, so the registry holds no
/// pointer into the components: the record paths stay plain relaxed
/// atomics, and several servers in one process each render their own.

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "mmph/obs/instruments.hpp"

namespace mmph::obs {

/// One `name="value"` pair of a series' label set.
struct Label {
  std::string name;
  std::string value;

  bool operator==(const Label&) const = default;
};
using Labels = std::vector<Label>;

class Registry {
 public:
  /// Adds one series of \p family holding the instrument's current value.
  /// Family and label names should match [a-zA-Z_][a-zA-Z0-9_]* (`le` is
  /// the histogram's own); label values are escaped on output. \p help is
  /// the family's HELP text (the first non-empty one wins). \throws
  /// mmph::InvalidArgument when \p family was added as another instrument
  /// kind, or when it already has a series with the same labels.
  void add(std::string_view family, std::string_view help,
           const Counter& counter, Labels labels = {});
  void add(std::string_view family, std::string_view help, const Gauge& gauge,
           Labels labels = {});
  void add(std::string_view family, std::string_view help,
           const Histogram& histogram, Labels labels = {});

  /// Every family as Prometheus text exposition: `# HELP` and `# TYPE`
  /// once, then its series; a histogram series is its cumulative `_bucket`
  /// lines (series labels first, then `le`, ending at "+Inf"), `_sum` and
  /// `_count`.
  [[nodiscard]] std::string exposition_text() const;

 private:
  /// Counter, gauge or histogram value; the index is the family's kind.
  using Value = std::variant<std::uint64_t, double, HistogramSnapshot>;
  struct Series {
    Labels labels;
    Value value;
  };
  struct Family {
    std::string name;
    std::string help;
    std::vector<Series> series;  ///< nonempty; all of one kind
  };

  void add_series(std::string_view family, std::string_view help,
                  Labels labels, Value value);

  std::vector<Family> families_;  ///< first-add order
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace mmph::obs
