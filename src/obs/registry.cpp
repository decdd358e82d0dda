#include "mmph/obs/registry.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

#include "mmph/support/assert.hpp"

namespace mmph::obs {

namespace {

/// Shortest round-trippable decimal for a double ("%.17g" is exact but
/// ugly; "%.9g" survives parsing for every value these metrics produce
/// while keeping the exposition readable).
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// `{a="x",b="y",le="1e-06"}`, or nothing for an empty set; `le` (the
/// bucket bound of a histogram line) always comes last.
void write_labels(std::ostream& out, const Labels& labels,
                  std::string_view le = {}) {
  if (labels.empty() && le.empty()) return;
  char sep = '{';
  for (const Label& label : labels) {
    out << sep << label.name << "=\"";
    for (const char c : label.value) {
      if (c == '\\' || c == '"') out << '\\';
      if (c == '\n') {
        out << "\\n";
      } else {
        out << c;
      }
    }
    out << '"';
    sep = ',';
  }
  if (!le.empty()) out << sep << "le=\"" << le << '"';
  out << '}';
}

constexpr const char* kTypeNames[] = {"counter", "gauge", "histogram"};

}  // namespace

void Registry::add(std::string_view family, std::string_view help,
                   const Counter& counter, Labels labels) {
  add_series(family, help, std::move(labels), counter.value());
}

void Registry::add(std::string_view family, std::string_view help,
                   const Gauge& gauge, Labels labels) {
  add_series(family, help, std::move(labels), gauge.value());
}

void Registry::add(std::string_view family, std::string_view help,
                   const Histogram& histogram, Labels labels) {
  add_series(family, help, std::move(labels), histogram.snapshot());
}

void Registry::add_series(std::string_view family, std::string_view help,
                          Labels labels, Value value) {
  auto [it, inserted] = index_.try_emplace(std::string(family),
                                           families_.size());
  if (inserted) families_.push_back(Family{std::string(family), {}, {}});
  Family& fam = families_[it->second];
  MMPH_REQUIRE(fam.series.empty() ||
                   fam.series.front().value.index() == value.index(),
               "metric family added with a different instrument kind");
  MMPH_REQUIRE(std::none_of(fam.series.begin(), fam.series.end(),
                            [&](const Series& s) { return s.labels == labels; }),
               "metric series added twice with the same labels");
  if (fam.help.empty()) fam.help = help;
  fam.series.push_back(Series{std::move(labels), std::move(value)});
}

std::string Registry::exposition_text() const {
  std::ostringstream out;
  for (const Family& fam : families_) {
    const std::string& name = fam.name;
    if (!fam.help.empty()) out << "# HELP " << name << ' ' << fam.help << '\n';
    out << "# TYPE " << name << ' '
        << kTypeNames[fam.series.front().value.index()] << '\n';
    for (const Series& s : fam.series) {
      const auto* snap = std::get_if<HistogramSnapshot>(&s.value);
      if (snap == nullptr) {
        out << name;
        write_labels(out, s.labels);
        if (const auto* count = std::get_if<std::uint64_t>(&s.value)) {
          out << ' ' << *count << '\n';
        } else {
          out << ' ' << format_double(std::get<double>(s.value)) << '\n';
        }
        continue;
      }
      std::uint64_t cumulative = 0;  // the last (+Inf) bucket ends at count
      for (std::size_t i = 0; i < kBucketCount; ++i) {
        cumulative += snap->buckets[i];
        out << name << "_bucket";
        write_labels(out, s.labels,
                     i + 1 < kBucketCount ? format_double(kBucketBounds[i])
                                          : "+Inf");
        out << ' ' << cumulative << '\n';
      }
      out << name << "_sum";
      write_labels(out, s.labels);
      out << ' ' << format_double(snap->sum) << '\n' << name << "_count";
      write_labels(out, s.labels);
      out << ' ' << snap->count << '\n';
    }
  }
  return out.str();
}

}  // namespace mmph::obs
