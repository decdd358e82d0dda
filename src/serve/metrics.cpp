#include "mmph/serve/metrics.hpp"

#include <string>

#include "mmph/core/local_search.hpp"

namespace mmph::serve {

ServeMetrics::ServeMetrics(std::size_t store_shards)
    : shards_(store_shards > 1 ? store_shards : 0) {}

void ServeMetrics::add_ls(const core::LsStats& stats) {
  ls_moves_.add(stats.moves);
  ls_evals_.add(stats.evals);
  ls_far_evals_.add(stats.far_evals);
  ls_skipped_.add(stats.skipped);
  ls_gain_sums_.add(stats.gain_sums);
  if (stats.improved) ls_improvements_.add();
}

void ServeMetrics::count_shard_mutations(std::size_t shard, std::uint64_t n) {
  if (shard < shards_.size()) shards_[shard].mutations.add(n);
}

void ServeMetrics::set_shard_rows(std::size_t shard, std::size_t rows) {
  if (shard < shards_.size()) {
    shards_[shard].rows.set(static_cast<double>(rows));
  }
}

void ServeMetrics::count_affinity(bool hit) {
  if (shards_.empty()) return;
  (hit ? affinity_hits_ : affinity_misses_).add();
}

void ServeMetrics::add_spatial(const spatial::IndexStats& delta) {
  spatial_queries_.add(delta.queries);
  spatial_points_touched_.add(delta.points_touched);
  spatial_updates_.add(delta.incremental_updates);
  spatial_rebuilds_.add(delta.rebuilds);
}

void ServeMetrics::record_batch(std::size_t size) {
  batches_.add();
  batched_requests_.add(size);
}

void ServeMetrics::record_solve(double seconds, bool incremental) {
  if (incremental) {
    incremental_solves_.add();
  } else {
    full_solves_.add();
  }
  solve_seconds_.observe(seconds);
}

MetricsSnapshot ServeMetrics::snapshot() const {
  MetricsSnapshot snap;
  snap.submitted = submitted_.value();
  snap.rejected_full = rejected_full_.value();
  snap.timeouts = timeouts_.value();
  snap.shutdown = shutdown_.value();
  snap.bad_requests = bad_requests_.value();
  snap.internal_errors = internal_errors_.value();
  snap.batches = batches_.value();
  snap.batched_requests = batched_requests_.value();
  snap.mutations = mutations_.value();
  snap.queries = queries_.value();
  snap.full_solves = full_solves_.value();
  snap.incremental_solves = incremental_solves_.value();
  snap.queue_depth = static_cast<std::size_t>(queue_depth_.value());
  snap.repl_lag_ops = repl_lag_ops_.value();
  snap.spatial_queries = spatial_queries_.value();
  snap.spatial_points_touched = spatial_points_touched_.value();
  snap.spatial_incremental_updates = spatial_updates_.value();
  snap.spatial_rebuilds = spatial_rebuilds_.value();
  snap.ls_moves = ls_moves_.value();
  snap.ls_improvements = ls_improvements_.value();
  snap.ls_evals = ls_evals_.value();
  snap.ls_far_evals = ls_far_evals_.value();
  snap.ls_skipped = ls_skipped_.value();
  snap.ls_gain_sums = ls_gain_sums_.value();
  snap.mean_batch_size =
      snap.batches == 0 ? 0.0
                        : static_cast<double>(snap.batched_requests) /
                              static_cast<double>(snap.batches);
  const obs::HistogramSnapshot hist = solve_seconds_.snapshot();
  snap.solve_p50_seconds = hist.quantile(0.50);
  snap.solve_p99_seconds = hist.quantile(0.99);
  snap.total_solve_seconds = hist.sum;
  return snap;
}

void ServeMetrics::describe(obs::Registry& registry) const {
  registry.add("mmph_serve_submitted_total",
               "requests accepted into the queue", submitted_);
  registry.add("mmph_serve_rejected_total", "requests shed: queue full",
               rejected_full_);
  registry.add("mmph_serve_timeouts_total", "requests expired while queued",
               timeouts_);
  registry.add("mmph_serve_shutdown_total", "requests answered kShutdown",
               shutdown_);
  registry.add("mmph_serve_bad_requests_total",
               "requests answered kBadRequest", bad_requests_);
  registry.add("mmph_serve_internal_errors_total",
               "requests answered kInternalError", internal_errors_);
  registry.add("mmph_serve_batches_total", "worker batches processed",
               batches_);
  registry.add("mmph_serve_batched_requests_total", "requests across batches",
               batched_requests_);
  registry.add("mmph_serve_mutations_total", "add/remove requests applied",
               mutations_);
  registry.add("mmph_serve_queries_total",
               "placement/evaluate requests answered", queries_);
  registry.add("mmph_serve_full_solves_total", "full sharded re-solves",
               full_solves_);
  registry.add("mmph_serve_incremental_solves_total",
               "incremental warm re-solves", incremental_solves_);
  registry.add("mmph_serve_queue_depth", "requests currently queued",
               queue_depth_);
  registry.add("mmph_repl_lag_ops", "replication lag in applied ops",
               repl_lag_ops_);
  registry.add("mmph_spatial_queries_total", "coverage-index radius queries",
               spatial_queries_);
  registry.add("mmph_spatial_points_touched_total",
               "points returned across index queries",
               spatial_points_touched_);
  registry.add("mmph_spatial_incremental_updates_total",
               "index add/update/swap-remove operations", spatial_updates_);
  registry.add("mmph_spatial_rebuilds_total", "index bulk (re)builds",
               spatial_rebuilds_);
  registry.add("mmph_ls_moves_total",
               "committed local-search shift/swap moves", ls_moves_);
  registry.add("mmph_ls_improvements_total",
               "solves where the ls polish beat its seed", ls_improvements_);
  registry.add("mmph_ls_evals_total", "local-search exact delta evaluations",
               ls_evals_);
  registry.add("mmph_ls_far_evals_total",
               "exact evaluations of disjoint-ball swap pairs",
               ls_far_evals_);
  registry.add("mmph_ls_skipped_total",
               "swap pairs decided without a trial (cached gains, or tried "
               "at the same state)",
               ls_skipped_);
  registry.add("mmph_ls_gain_sums_total",
               "local-search marginal-gain ball sums", ls_gain_sums_);
  registry.add("mmph_serve_solve_seconds", "placement solve latency",
               solve_seconds_);
  if (shards_.empty()) return;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const obs::Labels labels = {{"shard", std::to_string(s)}};
    registry.add("mmph_store_shard_mutations_total",
                 "mutations routed to each store shard", shards_[s].mutations,
                 labels);
    registry.add("mmph_store_shard_rows", "live rows per store shard",
                 shards_[s].rows, labels);
  }
  registry.add("mmph_store_shard_affinity_hits_total",
               "mutations whose event loop mapped to their store shard",
               affinity_hits_);
  registry.add("mmph_store_shard_affinity_misses_total",
               "mutations routed across the loop->shard mapping",
               affinity_misses_);
}

}  // namespace mmph::serve
