#include "mmph/trace/span.hpp"

#include <algorithm>

namespace mmph::trace {

SpanCollector& SpanCollector::global() {
  static SpanCollector collector;
  return collector;
}

namespace {

/// Span names are dotted ("serve.solve.full"); Prometheus metric names
/// only allow [a-zA-Z0-9_:], so anything else becomes '_'.
std::string metric_name_for_span(const std::string& span_name) {
  std::string out = "mmph_span_";
  for (char c : span_name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  out += "_seconds";
  return out;
}

}  // namespace

void SpanCollector::record(const std::string& name, double seconds) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  Cell& cell = cells_[name];
  ++cell.count;
  cell.total_seconds += seconds;
  cell.max_seconds = std::max(cell.max_seconds, seconds);
  cell.histogram.observe(seconds);
}

std::vector<SpanStats> SpanCollector::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<SpanStats> out;
  out.reserve(cells_.size());
  for (const auto& [name, cell] : cells_) {
    out.push_back(
        SpanStats{name, cell.count, cell.total_seconds, cell.max_seconds});
  }
  return out;  // std::map iteration is already name-sorted
}

void SpanCollector::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  cells_.clear();
}

void SpanCollector::describe(obs::Registry& registry) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, cell] : cells_) {
    registry.add(metric_name_for_span(name), "span duration: " + name,
                 cell.histogram);
  }
}

}  // namespace mmph::trace
