#include "mmph/serve/metrics.hpp"

#include <string>

#include "mmph/core/local_search.hpp"

namespace mmph::serve {

ServeMetrics::ServeMetrics()
    : submitted_(&registry_.counter("mmph_serve_submitted_total",
                                    "requests accepted into the queue")),
      rejected_full_(&registry_.counter("mmph_serve_rejected_total",
                                        "requests shed: queue full")),
      timeouts_(&registry_.counter("mmph_serve_timeouts_total",
                                   "requests expired while queued")),
      shutdown_(&registry_.counter("mmph_serve_shutdown_total",
                                   "requests answered kShutdown")),
      bad_requests_(&registry_.counter("mmph_serve_bad_requests_total",
                                       "requests answered kBadRequest")),
      internal_errors_(
          &registry_.counter("mmph_serve_internal_errors_total",
                             "requests answered kInternalError")),
      batches_(&registry_.counter("mmph_serve_batches_total",
                                  "worker batches processed")),
      batched_requests_(&registry_.counter(
          "mmph_serve_batched_requests_total", "requests across batches")),
      mutations_(&registry_.counter("mmph_serve_mutations_total",
                                    "add/remove requests applied")),
      queries_(&registry_.counter("mmph_serve_queries_total",
                                  "placement/evaluate requests answered")),
      full_solves_(&registry_.counter("mmph_serve_full_solves_total",
                                      "full sharded re-solves")),
      incremental_solves_(
          &registry_.counter("mmph_serve_incremental_solves_total",
                             "incremental warm re-solves")),
      queue_depth_(&registry_.gauge("mmph_serve_queue_depth",
                                    "requests currently queued")),
      repl_lag_ops_(&registry_.gauge("mmph_repl_lag_ops",
                                     "replication lag in applied ops")),
      spatial_queries_(&registry_.counter("mmph_spatial_queries_total",
                                          "coverage-index radius queries")),
      spatial_points_touched_(
          &registry_.counter("mmph_spatial_points_touched_total",
                             "points returned across index queries")),
      spatial_updates_(
          &registry_.counter("mmph_spatial_incremental_updates_total",
                             "index add/update/swap-remove operations")),
      spatial_rebuilds_(&registry_.counter("mmph_spatial_rebuilds_total",
                                           "index bulk (re)builds")),
      ls_moves_(&registry_.counter("mmph_ls_moves_total",
                                   "committed local-search shift/swap moves")),
      ls_improvements_(
          &registry_.counter("mmph_ls_improvements_total",
                             "solves where the ls polish beat its seed")),
      ls_evals_(&registry_.counter("mmph_ls_evals_total",
                                   "local-search exact delta evaluations")),
      ls_far_evals_(
          &registry_.counter("mmph_ls_far_evals_total",
                             "exact evaluations of disjoint-ball swap pairs")),
      ls_skipped_(
          &registry_.counter("mmph_ls_skipped_total",
                             "swap pairs decided without a trial (cached "
                             "gains, or tried at the same state)")),
      ls_gain_sums_(
          &registry_.counter("mmph_ls_gain_sums_total",
                             "local-search marginal-gain ball sums")),
      solve_seconds_(&registry_.histogram("mmph_serve_solve_seconds",
                                          "placement solve latency")) {}

void ServeMetrics::add_ls(const core::LsStats& stats) {
  ls_moves_->add(stats.moves);
  ls_evals_->add(stats.evals);
  ls_far_evals_->add(stats.far_evals);
  ls_skipped_->add(stats.skipped);
  ls_gain_sums_->add(stats.gain_sums);
  if (stats.improved) ls_improvements_->add();
}

void ServeMetrics::configure_store_shards(std::size_t shards) {
  if (!shard_mutations_.empty()) return;  // idempotent
  // One family at a time: the exposition writes a family's HELP/TYPE
  // header once per run of consecutive same-family registrations, so
  // interleaving the two families would repeat both headers per shard.
  const auto label = [](std::size_t s) {
    return "{shard=\"" + std::to_string(s) + "\"}";
  };
  shard_mutations_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shard_mutations_.push_back(
        &registry_.counter("mmph_store_shard_mutations_total" + label(s),
                           "mutations routed to each store shard"));
  }
  shard_rows_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shard_rows_.push_back(&registry_.gauge("mmph_store_shard_rows" + label(s),
                                           "live rows per store shard"));
  }
  affinity_hits_ = &registry_.counter(
      "mmph_store_shard_affinity_hits_total",
      "mutations whose event loop mapped to their store shard");
  affinity_misses_ = &registry_.counter(
      "mmph_store_shard_affinity_misses_total",
      "mutations routed across the loop->shard mapping");
}

void ServeMetrics::count_shard_mutations(std::size_t shard, std::uint64_t n) {
  if (shard < shard_mutations_.size()) shard_mutations_[shard]->add(n);
}

void ServeMetrics::set_shard_rows(std::size_t shard, std::size_t rows) {
  if (shard < shard_rows_.size()) {
    shard_rows_[shard]->set(static_cast<double>(rows));
  }
}

void ServeMetrics::count_affinity(bool hit) {
  if (affinity_hits_ == nullptr) return;
  (hit ? affinity_hits_ : affinity_misses_)->add();
}

void ServeMetrics::add_spatial(const spatial::IndexStats& delta) {
  spatial_queries_->add(delta.queries);
  spatial_points_touched_->add(delta.points_touched);
  spatial_updates_->add(delta.incremental_updates);
  spatial_rebuilds_->add(delta.rebuilds);
}

void ServeMetrics::record_batch(std::size_t size) {
  batches_->add();
  batched_requests_->add(size);
}

void ServeMetrics::record_solve(double seconds, bool incremental) {
  if (incremental) {
    incremental_solves_->add();
  } else {
    full_solves_->add();
  }
  solve_seconds_->observe(seconds);
}

MetricsSnapshot ServeMetrics::snapshot() const {
  MetricsSnapshot snap;
  snap.submitted = submitted_->value();
  snap.rejected_full = rejected_full_->value();
  snap.timeouts = timeouts_->value();
  snap.shutdown = shutdown_->value();
  snap.bad_requests = bad_requests_->value();
  snap.internal_errors = internal_errors_->value();
  snap.batches = batches_->value();
  snap.batched_requests = batched_requests_->value();
  snap.mutations = mutations_->value();
  snap.queries = queries_->value();
  snap.full_solves = full_solves_->value();
  snap.incremental_solves = incremental_solves_->value();
  snap.queue_depth = static_cast<std::size_t>(queue_depth_->value());
  snap.repl_lag_ops = repl_lag_ops_->value();
  snap.spatial_queries = spatial_queries_->value();
  snap.spatial_points_touched = spatial_points_touched_->value();
  snap.spatial_incremental_updates = spatial_updates_->value();
  snap.spatial_rebuilds = spatial_rebuilds_->value();
  snap.ls_moves = ls_moves_->value();
  snap.ls_improvements = ls_improvements_->value();
  snap.ls_evals = ls_evals_->value();
  snap.ls_far_evals = ls_far_evals_->value();
  snap.ls_skipped = ls_skipped_->value();
  snap.ls_gain_sums = ls_gain_sums_->value();
  snap.mean_batch_size =
      snap.batches == 0 ? 0.0
                        : static_cast<double>(snap.batched_requests) /
                              static_cast<double>(snap.batches);
  const obs::HistogramSnapshot hist = solve_seconds_->snapshot();
  snap.solve_p50_seconds = hist.quantile(0.50);
  snap.solve_p99_seconds = hist.quantile(0.99);
  snap.total_solve_seconds = hist.sum;
  return snap;
}

}  // namespace mmph::serve
