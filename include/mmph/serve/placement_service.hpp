#pragma once

/// \file placement_service.hpp
/// \brief Long-running placement service: store -> shards -> merge -> reply.
///
/// Turns the one-shot library into the server the ROADMAP asks for. The
/// service owns a versioned InstanceStore of users, accepts batched
/// requests (add / remove / query / evaluate) through a bounded
/// RequestBatcher, and keeps a current k-center placement:
///
///   clients -> RequestBatcher -> [apply mutations] -> solve -> replies
///                                     |                 |
///                                InstanceStore      ShardedSolver (full)
///                                (epoch snapshots)  or one core::polish of
///                                                   the served placement
///                                                   (incremental)
///
/// Re-solves are *incremental by default*: after a small churn delta the
/// service polishes the placement it served last (view_, its only
/// history) on the mutated population instead of re-running the sharded
/// greedy. When churn since the last solve exceeds
/// `full_solve_churn_fraction` of the population (or there is no usable
/// history: first solve, restore, emptied store, fewer than k centers), it
/// falls back to the full sharded solve. Each solve runs at most one
/// search. Every stage reports trace:: spans and ServeMetrics.
///
/// Threading: the synchronous API (apply_* / placement / evaluate) and
/// pump() serialize on an internal mutex, and submit() is safe from any
/// thread. The service owns no thread: its callers drain batches with
/// pump() (the NetServer event loops, serve-replay, the chaos harness),
/// any number of them concurrently — pump() keeps pop order = apply order.

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mmph/core/gain_cache.hpp"
#include "mmph/core/problem.hpp"
#include "mmph/core/solution.hpp"
#include "mmph/parallel/thread_pool.hpp"
#include "mmph/serve/fault.hpp"
#include "mmph/serve/instance_store.hpp"
#include "mmph/serve/metrics.hpp"
#include "mmph/serve/request.hpp"
#include "mmph/serve/request_batcher.hpp"
#include "mmph/serve/sharded_solver.hpp"
#include "mmph/serve/sharded_store.hpp"
#include "mmph/spatial/uniform_grid.hpp"
#include "mmph/wal/record.hpp"
#include "mmph/wal/sharded_wal.hpp"
#include "mmph/wal/snapshot.hpp"
#include "mmph/wal/writer.hpp"

namespace mmph::serve {

/// Which solver tier produces placements (the --solver CLI flag).
enum class SolverTier {
  /// Sharded lazy greedy with global merge — the default. Its selections
  /// are bitwise-identical to plain greedy's (the lazy queue only skips
  /// evaluations whose stale bound already loses). A warm re-solve is one
  /// shallow core::polish of the served centers: 1 pure swap sweep over a
  /// curated pool of at most 32 candidates (recently churned-in users
  /// first, then the last full solve's per-shard winners).
  kLazy,
  /// The same solves, searched deeper: a full solve's output is polished
  /// by shift/swap local search (core::polish, LsConfig{}) over every
  /// instance point, and a warm re-solve is that same polish started from
  /// the served centers. The carried coverage index serves the delta
  /// evaluations, the marginal gains carry from one polish to the next
  /// (core::GainCache; store_shards == 1), and the polish never returns a
  /// worse placement than its seed. Only this tier records mmph_ls_* and
  /// serve.solve.polish.
  kLs,
};

[[nodiscard]] const char* solver_tier_name(SolverTier tier) noexcept;
/// Parses "lazy" / "ls"; std::nullopt for anything else.
[[nodiscard]] std::optional<SolverTier> parse_solver_tier(
    std::string_view name) noexcept;

struct ServiceConfig {
  std::size_t dim = 2;
  std::size_t k = 8;
  double radius = 1.0;
  geo::Metric metric{};
  core::RewardShape shape = core::RewardShape::kLinear;

  /// The full solve's split of the global rows (CLI --shards), at every
  /// store_shards count.
  ShardedSolverConfig shard{};

  /// Solver tier for placements (see SolverTier). On kLs the service's
  /// fault_hook also reaches the polish (the ls.eval_throw site).
  SolverTier solver = SolverTier::kLazy;

  /// Churn (mutations since last solve) above this fraction of the
  /// population forces a full sharded re-solve instead of a warm refine.
  double full_solve_churn_fraction = 0.05;

  std::size_t queue_capacity = 1024;
  std::size_t max_batch = 256;

  /// Test-only fault seam (see fault.hpp); empty in production. Fired at
  /// serve.queue_full / serve.deadline_skew (batcher) and
  /// serve.solver_throw / serve.alloc_fail (batch processing).
  FaultHook fault_hook{};

  /// One-shard write-ahead log input (store_shards == 1 only; mutually
  /// exclusive with shard_wal; must outlive the service). The service
  /// wraps it in a one-shard wal::ShardedWal and logs through that, the
  /// same path and the same bytes as a one-shard shard_wal. Null: see
  /// shard_wal.
  wal::WalWriter* wal = nullptr;

  /// Region shards the InstanceStore is split into (>= 1): a storage and
  /// durability layout only. 1 is the bit-identity mode: one store shard
  /// receiving exactly the unsharded call sequence (the --store-shards 1
  /// golden-digest discipline, like --loops 1). > 1 partitions users by
  /// interest-space region (spatial::RegionMap over grid cells of edge
  /// `radius`): mutations route to their region's shard and its log.
  /// Every full solve splits the global rows by `shard` at any store-shard
  /// count, so it returns the one-shard centers. Replication streams only
  /// a one-shard log.
  std::size_t store_shards = 1;

  /// The write-ahead log, one WalWriter per store shard (shard_count must
  /// equal store_shards; must outlive the service). Every mutation is
  /// appended to its shard's log *before* it touches the store, and the
  /// batch's replies wait for ShardedWal::commit_all, so a kOk ack implies
  /// the op is logged as durably as the fsync policy promises. Null with
  /// `wal` also null: no durability.
  wal::ShardedWal* shard_wal = nullptr;
};

/// The answer to "where are the centers right now".
struct PlacementView {
  std::uint64_t epoch = 0;       ///< store epoch the placement reflects
  double objective = 0.0;        ///< f(C) on that population
  std::size_t population = 0;
  core::Solution solution;       ///< empty centers for an empty population
};

class PlacementService {
 public:
  /// \p pool runs shard solves; nullptr selects ThreadPool::global().
  explicit PlacementService(ServiceConfig config,
                            par::ThreadPool* pool = nullptr);

  PlacementService(const PlacementService&) = delete;
  PlacementService& operator=(const PlacementService&) = delete;

  // --- synchronous API (tests, benches, embedded use) ---

  /// Upserts users; marks the placement stale.
  void apply_add(const std::vector<UserRecord>& users);
  /// Removes users (unknown ids are ignored); marks the placement stale.
  void apply_remove(const std::vector<std::uint64_t>& ids);
  /// Current placement, re-solving first when the store changed.
  [[nodiscard]] PlacementView placement();
  /// f(\p centers) on the live population (0 when empty).
  [[nodiscard]] double evaluate(const geo::PointSet& centers);

  [[nodiscard]] std::size_t population() const;
  [[nodiscard]] std::uint64_t epoch() const;

  // --- WAL / replication API ---

  /// Replaces the whole population from a recovered or replicated
  /// snapshot (placement history is dropped; the next query re-solves).
  /// With a WAL attached the snapshot is also checkpointed, aligning the
  /// log with the new state. \throws InvalidArgument on a dimension or
  /// epoch mismatch, wal::WalError when the checkpoint cannot be written,
  /// StateError with store_shards > 1 (use restore_sharded: one global
  /// epoch cannot reconstruct per-shard chains).
  void restore_from(const wal::WalSnapshot& snapshot);

  /// Boot-time install of a sharded recovery result: shard s's rows and
  /// epoch land in store shard s, and (with a log attached) each
  /// non-empty shard is re-checkpointed so its log chains from the
  /// installed state. \throws InvalidArgument on a shard-count or
  /// dimension mismatch.
  void restore_sharded(const wal::ShardedRecovery& recovered);

  /// Applies one replicated log record (replica ingest path; works even
  /// in read-only mode). The record's epoch must continue the store's
  /// chain exactly. \p primary_epoch is the primary's epoch as the stream
  /// last reported it: the lag gauge (mmph_repl_lag_ops) is set from it in
  /// the critical section that advances the epoch, so a reader that sees
  /// the replica caught up also sees lag 0. \throws StateError on a chain
  /// break — the caller should resubscribe from a snapshot.
  void apply_replicated(const wal::WalRecord& record,
                        std::uint64_t primary_epoch);

  /// The live population as a WAL snapshot (what write_snapshot persists
  /// and what kReplSnapshot streams).
  [[nodiscard]] wal::WalSnapshot wal_snapshot();

  /// One store shard's rows and epoch as a WAL snapshot — the unit the
  /// per-shard logs checkpoint and recovery restores. \throws
  /// InvalidArgument when \p s >= store_shards().
  [[nodiscard]] wal::WalSnapshot shard_wal_snapshot(std::size_t s);

  /// The log the service writes through: config().shard_wal, or the
  /// one-shard wrap of config().wal; null without durability. The server
  /// streams replication from it when it has one shard.
  [[nodiscard]] wal::ShardedWal* shard_wal() const noexcept { return wal_; }

  /// Region shards the store runs with (config().store_shards).
  [[nodiscard]] std::size_t store_shards() const noexcept {
    return store_.shard_count();
  }

  /// Publishes the replica's current lag (mmph_repl_lag_ops gauge).
  /// Called by net::ReplicaAgent; thread-safe (atomic gauge).
  void set_repl_lag(double ops) { metrics_.set_repl_lag(ops); }

  /// Read-only mode: mutations are answered kBadRequest (direct API:
  /// StateError). Replicas run read-only until promoted; promotion is
  /// simply set_read_only(false).
  void set_read_only(bool read_only) noexcept {
    read_only_.store(read_only, std::memory_order_relaxed);
  }
  [[nodiscard]] bool read_only() const noexcept {
    return read_only_.load(std::memory_order_relaxed);
  }

  // --- batched asynchronous API ---

  /// Enqueues; the future resolves when a pump() processes the batch
  /// (immediately with kRejected when the queue is full).
  [[nodiscard]] std::future<Response> submit(Request request);
  /// Enqueues many requests under one queue lock, preserving order;
  /// futures are returned in the same order. Equivalent to submit() per
  /// element, minus the per-request lock round-trips — the NetServer
  /// event loops submit everything they decoded in one pass this way.
  [[nodiscard]] std::vector<std::future<Response>> submit_batch(
      std::vector<Request> requests);
  /// Drains and processes at most one batch without waiting. Returns the
  /// number of requests handled (0 when the queue is empty).
  std::size_t pump();
  /// Closes the queue (terminal: queued and later submits are answered
  /// kShutdown). Idempotent.
  void stop() { batcher_.close(); }

  [[nodiscard]] std::size_t queue_depth() const { return batcher_.depth(); }
  [[nodiscard]] MetricsSnapshot metrics() const { return metrics_.snapshot(); }
  /// Describes the serve series and those of every WAL writer the service
  /// logs through (`{shard="s"}`-labeled when there is more than one) into
  /// \p registry. Thread-safe: reads atomics only.
  void describe_metrics(obs::Registry& registry) const;
  [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }

 private:
  void apply_add_locked(const std::vector<UserRecord>& users);
  void apply_remove_locked(const std::vector<std::uint64_t>& ids);
  /// Drops the placement history and everything carried across epochs
  /// (restores, an emptied store).
  void forget_population_locked();
  /// Drops gains_ once churn since the last solve passes
  /// full_solve_churn_fraction (the next solve is full anyway).
  void bound_gains_locked();
  /// Brings index_ to \p problem's rows, or drops it. A \p warm solve
  /// lends kernels::should_index the clean carried grid (no bounding-box
  /// pass); a full solve runs the kAuto test on the rows.
  void ensure_index_locked(const core::Problem& problem, bool warm);
  void publish_spatial_locked();
  /// Appends (shard, record) pairs in order, before any of them is
  /// applied. A failure after the first append poisons every writer.
  void append_wal_locked(
      std::vector<std::pair<std::size_t, wal::WalRecord>>& records,
      const char* caller);
  void commit_wal_locked();
  void maybe_snapshot_locked();
  void poison_wal_locked(const std::string& reason);
  [[nodiscard]] wal::WalSnapshot wal_snapshot_locked() const;
  [[nodiscard]] wal::WalSnapshot shard_wal_snapshot_locked(
      std::size_t s) const;
  void count_affinity_locked(const Request& request);
  [[nodiscard]] const PlacementView& solve_locked();
  /// One core::polish per solve: of \p full (a sharded solve's output;
  /// kLs only) or, when null, of the served centers (the warm re-solve).
  [[nodiscard]] core::Solution polish_locked(const core::Problem& problem,
                                             const core::Solution* full);
  [[nodiscard]] geo::PointSet incremental_pool_locked() const;
  void process_batch(std::vector<Request> batch);
  /// f(\p centers) on the store's rows (lent uncopied at one store
  /// shard): core::objective_value. Requires a non-empty store.
  [[nodiscard]] double evaluate_locked(const geo::PointSet& centers);

  ServiceConfig config_;
  /// The one-shard wrap of config_.wal, when that input is set.
  std::unique_ptr<wal::ShardedWal> owned_wal_;
  /// The log every durability site uses (see shard_wal()).
  wal::ShardedWal* wal_ = nullptr;
  par::ThreadPool& pool_;
  ServeMetrics metrics_;
  RequestBatcher batcher_;

  /// Serializes whole pump() passes (pop + process). pop_batch and
  /// process_batch take different locks, so two loops pumping
  /// concurrently could otherwise apply batch N+1 before batch N — a
  /// store/WAL order no client submitted (the multi-loop group-commit
  /// ordering bug).
  std::mutex pump_mutex_;

  mutable std::mutex mutex_;
  /// The population. At one store shard each solve and evaluation reads
  /// the shard's own rows: lent uncopied into the core::Problem it reads
  /// and handed back when it ends. Above one, it reads their concatenation.
  ShardedInstanceStore store_;
  std::unique_ptr<ShardedSolver> sharded_;
  /// The served placement; a warm re-solve's seed is its centers.
  std::optional<PlacementView> view_;
  std::uint64_t churn_since_solve_ = 0;
  /// Interest rows of recently churned-in users (swap candidates).
  std::deque<std::vector<double>> recent_points_;

  /// Coverage index carried across churn epochs (kernels::should_index()
  /// decides whether one is kept; a warm solve lends it to that test).
  /// Rows mirror the store's live rows: every mutation applies the same
  /// add/update/swap-remove to both, so a re-solve skips the O(n) build.
  /// The index is an accelerator, never truth — a failed mirror marks it
  /// dirty and the next solve rebuilds it from the rows (placements are
  /// bit-identical either way).
  std::unique_ptr<spatial::UniformGridIndex> index_;
  bool index_dirty_ = false;
  /// kLs with one store shard: the last polish's marginal gains, carried to
  /// the next warm polish. Every mutation mirrors its row operation here
  /// in O(1), whether or not an index is carried; empty = the next polish
  /// sums every row (after a full solve's polish it is filled again).
  core::GainCache gains_;
  /// stats() at the last metrics publication (counters are deltas).
  spatial::IndexStats index_published_{};

  std::atomic<bool> read_only_{false};
};

}  // namespace mmph::serve
