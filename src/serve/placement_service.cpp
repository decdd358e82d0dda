#include "mmph/serve/placement_service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <new>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "mmph/core/kernels.hpp"
#include "mmph/core/local_search.hpp"
#include "mmph/core/objective.hpp"
#include "mmph/support/assert.hpp"
#include "mmph/support/error.hpp"
#include "mmph/trace/span.hpp"

namespace mmph::serve {
namespace {

using Clock = std::chrono::steady_clock;

/// Warm re-solve on kLazy: the curated swap-candidate pool's size and the
/// sweeps of its polish.
constexpr std::size_t kWarmCandidates = 32;
constexpr std::size_t kWarmSweeps = 1;

/// The coverage radius, which is also the store's RegionMap cell edge;
/// validated here so the member initializer cannot hit RegionMap's own
/// check with a confusing message.
double checked_radius(const ServiceConfig& config) {
  MMPH_REQUIRE(config.radius > 0.0,
               "PlacementService: radius must be positive");
  return config.radius;
}

/// \p rows as a WAL snapshot: every array moves, none is copied.
wal::WalSnapshot to_wal_snapshot(StoreSnapshot rows) {
  wal::WalSnapshot snap;
  snap.epoch = rows.epoch;
  snap.dim = static_cast<std::uint16_t>(rows.points.dim());
  snap.ids = std::move(rows.ids);
  snap.weights = std::move(rows.weights);
  snap.coords = std::move(rows.points).release();
  return snap;
}

/// Mirrors one row operation into the carried gains. A failure (an
/// allocation) drops the cache, so the next polish sums every row; the
/// mutation itself never fails for it.
template <typename Op>
void mirror_gains(core::GainCache& gains, Op&& op) noexcept {
  if (gains.empty()) return;
  try {
    op();
  } catch (...) {
    gains.clear();
  }
}

/// The rows one solve or evaluation reads, as a core::Problem that lives
/// as long as the guard. At one store shard they are the shard's own
/// arrays, lent uncopied and handed back when the guard goes, a throw
/// included; above one, the shards' concatenation (one copy). Requires a
/// non-empty store, which nothing else may touch while the guard lives.
class SolveRows {
 public:
  SolveRows(ShardedInstanceStore& store, const ServiceConfig& config)
      : lender_(store.shard_count() == 1 ? &store.shard(0) : nullptr),
        problem_(wrap(store, lender_, config)) {}
  ~SolveRows() {
    if (lender_ == nullptr) return;
    core::Problem::Rows rows = std::move(problem_).release();
    lender_->return_rows(
        {std::move(rows.weights), std::move(rows.points).release()});
  }
  SolveRows(const SolveRows&) = delete;
  SolveRows& operator=(const SolveRows&) = delete;

  [[nodiscard]] const core::Problem& problem() const noexcept {
    return problem_;
  }

 private:
  /// The store checked every row it holds, so the Problem trusts them.
  static core::Problem wrap(const ShardedInstanceStore& store,
                            InstanceStore* lender,
                            const ServiceConfig& config) {
    if (lender != nullptr) {
      InstanceStore::Rows rows = lender->lend_rows();
      // Cannot throw: the store holds dim() coordinates per row.
      return core::Problem::trusted(
          geo::PointSet(store.dim(), std::move(rows.coords)),
          std::move(rows.weights), config.radius, config.metric,
          config.shape);
    }
    StoreSnapshot snap = store.global_snapshot();
    return core::Problem::trusted(std::move(snap.points),
                                  std::move(snap.weights), config.radius,
                                  config.metric, config.shape);
  }

  InstanceStore* lender_;
  core::Problem problem_;
};

}  // namespace

const char* solver_tier_name(SolverTier tier) noexcept {
  switch (tier) {
    case SolverTier::kLazy:
      return "lazy";
    case SolverTier::kLs:
      return "ls";
  }
  return "lazy";
}

std::optional<SolverTier> parse_solver_tier(std::string_view name) noexcept {
  if (name == "lazy") return SolverTier::kLazy;
  if (name == "ls") return SolverTier::kLs;
  return std::nullopt;
}

PlacementService::PlacementService(ServiceConfig config, par::ThreadPool* pool)
    : config_(config),
      pool_(pool != nullptr ? *pool : par::ThreadPool::global()),
      metrics_(config.store_shards),
      batcher_(config.queue_capacity, &metrics_, config.fault_hook),
      store_(config.dim, std::max<std::size_t>(config.store_shards, 1),
             checked_radius(config)) {
  MMPH_REQUIRE(config_.k >= 1, "PlacementService: k must be >= 1");
  MMPH_REQUIRE(config_.store_shards >= 1,
               "PlacementService: store_shards must be >= 1");
  MMPH_REQUIRE(config_.max_batch >= 1,
               "PlacementService: max_batch must be >= 1");
  MMPH_REQUIRE(config_.full_solve_churn_fraction >= 0.0,
               "PlacementService: churn fraction must be >= 0");
  MMPH_REQUIRE(config_.wal == nullptr || config_.shard_wal == nullptr,
               "PlacementService: wal and shard_wal are mutually exclusive");
  // One log path: a lone WalWriter is a one-shard ShardedWal.
  if (config_.wal != nullptr) {
    owned_wal_ = std::make_unique<wal::ShardedWal>(*config_.wal);
  }
  wal_ = config_.shard_wal != nullptr ? config_.shard_wal : owned_wal_.get();
  MMPH_REQUIRE(wal_ == nullptr || wal_->shard_count() == config_.store_shards,
               "PlacementService: log shard count != store_shards (wal "
               "is one shard)");
  sharded_ = std::make_unique<ShardedSolver>(pool_, config_.shard);
}

void PlacementService::apply_add(const std::vector<UserRecord>& users) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (read_only()) throw StateError("apply_add: service is read-only");
  apply_add_locked(users);
  commit_wal_locked();
  maybe_snapshot_locked();
}

void PlacementService::apply_remove(const std::vector<std::uint64_t>& ids) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (read_only()) throw StateError("apply_remove: service is read-only");
  apply_remove_locked(ids);
  commit_wal_locked();
  maybe_snapshot_locked();
}

void PlacementService::restore_from(const wal::WalSnapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (store_.shard_count() != 1) {
    // One global epoch cannot be split back into per-shard chains.
    throw StateError("restore_from: sharded store installs via restore_sharded");
  }
  MMPH_REQUIRE(snapshot.dim == config_.dim,
               "restore_from: snapshot dimension mismatch");
  store_.restore_shard(0, snapshot.epoch, snapshot.ids, snapshot.weights,
                       snapshot.coords);
  forget_population_locked();
  // Checkpoint the installed state so the local log chains from it (for
  // a boot-time restore this re-checkpoints what recovery read; for a
  // replica install it jumps the writer to the primary's epoch).
  if (wal_ != nullptr) wal_->writer(0).write_snapshot(snapshot);
}

void PlacementService::restore_sharded(const wal::ShardedRecovery& recovered) {
  std::lock_guard<std::mutex> lock(mutex_);
  MMPH_REQUIRE(recovered.shards.size() == store_.shard_count(),
               "restore_sharded: recovery shard count != store_shards");
  for (std::size_t s = 0; s < recovered.shards.size(); ++s) {
    const wal::WalSnapshot& part = recovered.shards[s].store;
    if (part.ids.empty() && part.epoch == 0) continue;  // untouched shard
    MMPH_REQUIRE(part.dim == config_.dim,
                 "restore_sharded: snapshot dimension mismatch");
    store_.restore_shard(s, part.epoch, part.ids, part.weights, part.coords);
  }
  forget_population_locked();
  if (wal_ != nullptr) {
    for (std::size_t s = 0; s < recovered.shards.size(); ++s) {
      if (recovered.shards[s].store.epoch == 0) continue;
      wal_->writer(s).write_snapshot(recovered.shards[s].store);
    }
  }
}

void PlacementService::forget_population_locked() {
  // Placement history is about a population that no longer exists.
  view_.reset();
  churn_since_solve_ = 0;
  recent_points_.clear();
  // The carried index and gains mirrored the old rows; the next solve
  // rebuilds.
  publish_spatial_locked();
  index_.reset();
  index_dirty_ = false;
  gains_.clear();
}

void PlacementService::apply_replicated(const wal::WalRecord& record,
                                        std::uint64_t primary_epoch) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (store_.shard_count() != 1) {
    // A replicated record carries the single-log epoch chain; a sharded
    // replica would need the per-shard streams (follow-on).
    throw StateError("apply_replicated: sharded store cannot ingest a "
                     "single-log stream");
  }
  if (record.epoch != store_.epoch() + record.count()) {
    throw StateError("apply_replicated: record breaks the epoch chain");
  }
  if (record.type == wal::RecordType::kUpsert) {
    MMPH_REQUIRE(record.dim == config_.dim,
                 "apply_replicated: record dimension mismatch");
    std::vector<UserRecord> users(record.ids.size());
    for (std::size_t i = 0; i < record.ids.size(); ++i) {
      users[i].id = record.ids[i];
      users[i].weight = record.weights[i];
      users[i].interest.assign(
          record.coords.begin() +
              static_cast<std::ptrdiff_t>(i * config_.dim),
          record.coords.begin() +
              static_cast<std::ptrdiff_t>((i + 1) * config_.dim));
    }
    apply_add_locked(users);
  } else {
    apply_remove_locked(record.ids);
  }
  // In the critical section that advanced the epoch: a reader that sees
  // the replica caught up also sees lag 0.
  const std::uint64_t epoch = store_.epoch();
  metrics_.set_repl_lag(
      static_cast<double>(primary_epoch > epoch ? primary_epoch - epoch : 0));
  commit_wal_locked();
  maybe_snapshot_locked();
}

wal::WalSnapshot PlacementService::wal_snapshot() {
  std::lock_guard<std::mutex> lock(mutex_);
  return wal_snapshot_locked();
}

wal::WalSnapshot PlacementService::shard_wal_snapshot(std::size_t s) {
  std::lock_guard<std::mutex> lock(mutex_);
  MMPH_REQUIRE(s < store_.shard_count(),
               "shard_wal_snapshot: shard out of range");
  return shard_wal_snapshot_locked(s);
}

PlacementView PlacementService::placement() {
  std::lock_guard<std::mutex> lock(mutex_);
  return solve_locked();
}

double PlacementService::evaluate(const geo::PointSet& centers) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (store_.empty() || centers.empty()) return 0.0;
  MMPH_REQUIRE(centers.dim() == config_.dim,
               "evaluate: centers dimension mismatch");
  return evaluate_locked(centers);
}

std::size_t PlacementService::population() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return store_.size();
}

std::uint64_t PlacementService::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return store_.epoch();
}

std::future<Response> PlacementService::submit(Request request) {
  std::future<Response> future = request.reply.get_future();
  batcher_.push(std::move(request));
  return future;
}

std::vector<std::future<Response>> PlacementService::submit_batch(
    std::vector<Request> requests) {
  std::vector<std::future<Response>> futures;
  futures.reserve(requests.size());
  for (Request& request : requests) {
    futures.push_back(request.reply.get_future());
  }
  batcher_.push_batch(std::move(requests));
  return futures;
}

std::size_t PlacementService::pump() {
  // One pump at a time, held across pop AND process. Each multi-loop
  // server loop rides its own pump; pop_batch and process_batch take
  // different locks, so without this guard loop B could pop batch N+1
  // and win the race to the store mutex — applying (and WAL-logging)
  // batch N+1 before batch N, an order no client submitted. The group
  // commit then acks durability in that inverted order too. Serializing
  // the whole pass keeps pop order == apply order == log order.
  std::lock_guard<std::mutex> pump_lock(pump_mutex_);
  std::vector<Request> batch = batcher_.pop_batch(config_.max_batch);
  if (batch.empty()) return 0;
  const std::size_t handled = batch.size();
  process_batch(std::move(batch));
  return handled;
}

namespace {

/// One planned store-shard operation of an add batch (batch order
/// preserved per shard).
struct PlannedOp {
  bool upsert = false;       ///< false: the remove half of a region move
  std::size_t user = 0;      ///< index into the batch's users
};

}  // namespace

void PlacementService::apply_add_locked(const std::vector<UserRecord>& users) {
  // Validate the whole batch up front: a batch is atomic — either every
  // row goes in (logged first when a WAL is attached) or the store is
  // exactly what it was. Without this, a mid-batch validation throw used
  // to leave the earlier rows applied. Non-finite values are refused as
  // the wire and log codecs refuse them.
  for (const UserRecord& user : users) {
    MMPH_REQUIRE(user.interest.size() == config_.dim,
                 "apply_add: interest dimension mismatch");
    MMPH_REQUIRE(std::isfinite(user.weight) && user.weight > 0.0,
                 "apply_add: weight must be finite and positive");
    MMPH_REQUIRE(std::all_of(user.interest.begin(), user.interest.end(),
                             [](double v) { return std::isfinite(v); }),
                 "apply_add: interest must be finite");
  }
  if (users.empty()) return;
  const std::size_t nshards = store_.shard_count();
  if (nshards > 1 && config_.fault_hook &&
      config_.fault_hook(kFaultStoreShardAllocFail)) {
    throw std::bad_alloc();  // before any append or mutation
  }

  // Route the batch: each store shard's ops in batch order. The plan must
  // equal what sequential application will do, record for record, or
  // replay diverges. Above one shard an upsert can move a user across
  // regions (out of its old shard, into its new one), and the overlay
  // tracks ids this batch already touched, so a second occurrence plans
  // against its post-first-occurrence shard. One shard has no moves, so
  // it needs neither the id lookup nor the overlay.
  std::vector<std::vector<PlannedOp>> plan(nshards);
  std::unordered_map<std::uint64_t, std::size_t> overlay;
  if (nshards > 1) overlay.reserve(users.size());
  for (std::size_t i = 0; i < users.size(); ++i) {
    const UserRecord& user = users[i];
    const std::size_t to = store_.shard_of_point(
        geo::ConstVec(user.interest.data(), user.interest.size()));
    if (nshards > 1) {
      const auto seen = overlay.find(user.id);
      const std::optional<std::size_t> from =
          seen != overlay.end() ? std::optional<std::size_t>(seen->second)
                                : store_.shard_of_id(user.id);
      if (from.has_value() && *from != to) {
        plan[*from].push_back(PlannedOp{false, i});  // region move: out...
      }
      overlay[user.id] = to;
    }
    plan[to].push_back(PlannedOp{true, i});  // ...and in (or plain upsert)
  }
  for (std::size_t s = 0; s < nshards; ++s) {
    store_.shard(s).reserve_rows(plan[s].size());
  }
  if (wal_ != nullptr) {
    // Each shard's ops become records, contiguous same-type runs
    // coalesced: at one shard, one kUpsert holding every user in order.
    std::vector<std::pair<std::size_t, wal::WalRecord>> records;
    for (std::size_t s = 0; s < nshards; ++s) {
      for (std::size_t at = 0; at < plan[s].size();) {
        std::size_t end = at + 1;
        while (end < plan[s].size() &&
               plan[s][end].upsert == plan[s][at].upsert) {
          ++end;
        }
        records.emplace_back(s, wal::WalRecord{});
        wal::WalRecord& record = records.back().second;
        record.ids.reserve(end - at);
        if (plan[s][at].upsert) {
          record.type = wal::RecordType::kUpsert;
          record.dim = static_cast<std::uint16_t>(config_.dim);
          record.weights.reserve(end - at);
          record.coords.reserve((end - at) * config_.dim);
          for (std::size_t j = at; j < end; ++j) {
            const UserRecord& user = users[plan[s][j].user];
            record.ids.push_back(user.id);
            record.weights.push_back(user.weight);
            record.coords.insert(record.coords.end(), user.interest.begin(),
                                 user.interest.end());
          }
        } else {
          record.type = wal::RecordType::kRemove;
          for (std::size_t j = at; j < end; ++j) {
            record.ids.push_back(users[plan[s][j].user].id);
          }
        }
        at = end;
      }
    }
    append_wal_locked(records, "apply_add");
  }

  try {
    for (const UserRecord& user : users) {
      const geo::ConstVec to(user.interest.data(), user.interest.size());
      if (nshards == 1) {
        // An update overwrites the row in place: record its old position
        // while the store still holds it (the upsert itself cannot throw
        // past the validation above).
        mirror_gains(gains_, [&] {
          const InstanceStore& rows = store_.shard(0);
          if (const auto row = rows.row_of(user.id)) {
            gains_.update(*row, rows.point(*row), to);
          }
        });
      }
      const auto route = store_.upsert(user);
      if (nshards == 1 && route.inserted) {
        mirror_gains(gains_, [&] { gains_.insert(to); });
      }
      ++churn_since_solve_;
      bound_gains_locked();
      metrics_.count_shard_mutations(route.to, 1);
      if (index_ != nullptr && !index_dirty_) {
        if (nshards > 1) {
          // Rows of the global concatenation shifted (any mutation moves
          // every later shard's rows); the next solve rebuilds.
          index_dirty_ = true;
        } else {
          // Mirror the mutation into the carried index. A failure here
          // must not fail the mutation (the store and WAL already agree):
          // the index just goes dirty and the next solve rebuilds it.
          try {
            if (config_.fault_hook &&
                config_.fault_hook(kFaultSpatialAllocFail)) {
              throw std::bad_alloc();
            }
            if (route.inserted) {
              index_->add(to);
            } else {
              index_->update(*store_.shard(0).row_of(user.id), to);
            }
          } catch (...) {
            index_dirty_ = true;
          }
        }
      }
      recent_points_.push_back(user.interest);
    }
  } catch (...) {
    // Only the churn-deque allocation can land here, but if it does the
    // log and the store have diverged mid-batch — poison the log so the
    // recovered state, not this process, is the durable truth.
    poison_wal_locked("apply_add: apply diverged from the log");
    throw;
  }
  // Keep only a few multiples of the candidate cap; older churn points
  // have already been seen by a solve or crowded out.
  while (recent_points_.size() > 4 * kWarmCandidates) {
    recent_points_.pop_front();
  }
  metrics_.count_mutations(users.size());
}

void PlacementService::apply_remove_locked(
    const std::vector<std::uint64_t>& ids) {
  // Only effective removals are logged — replay must advance the epoch
  // exactly as execution did — so filter unknown ids and within-batch
  // duplicates (no-ops after the first hit) before the append.
  std::vector<std::uint64_t> effective;
  effective.reserve(ids.size());
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(ids.size());
  for (const std::uint64_t id : ids) {
    if (store_.contains(id) && seen.insert(id).second) {
      effective.push_back(id);
    }
  }
  if (effective.empty()) return;
  const std::size_t nshards = store_.shard_count();
  if (nshards > 1 && config_.fault_hook &&
      config_.fault_hook(kFaultStoreShardAllocFail)) {
    throw std::bad_alloc();  // before any append or mutation
  }
  if (wal_ != nullptr) {
    // One kRemove record per touched shard, ids in batch order (removes
    // in different shards are independent, so per-shard order is the
    // only order replay needs). One shard takes every id unlooked-up.
    std::vector<std::vector<std::uint64_t>> per_shard(nshards);
    for (const std::uint64_t id : effective) {
      per_shard[nshards == 1 ? 0 : *store_.shard_of_id(id)].push_back(id);
    }
    std::vector<std::pair<std::size_t, wal::WalRecord>> records;
    for (std::size_t s = 0; s < nshards; ++s) {
      if (per_shard[s].empty()) continue;
      records.emplace_back(s, wal::WalRecord{});
      wal::WalRecord& record = records.back().second;
      record.type = wal::RecordType::kRemove;
      record.ids = std::move(per_shard[s]);
    }
    append_wal_locked(records, "apply_remove");
  }
  for (const std::uint64_t id : effective) {
    if (nshards == 1) {
      mirror_gains(gains_, [&] {
        const InstanceStore& rows = store_.shard(0);
        const std::size_t row = *rows.row_of(id);
        gains_.swap_remove(row, rows.point(row), rows.point(rows.size() - 1));
      });
    }
    if (index_ != nullptr && !index_dirty_) {
      if (nshards > 1) {
        index_dirty_ = true;  // global rows shifted; rebuild at solve
      } else {
        // The index's swap_remove relocates the same last row the store's
        // does, so rows keep corresponding; capture the row before the
        // store forgets the id.
        const std::size_t row = *store_.shard(0).row_of(id);
        try {
          if (config_.fault_hook &&
              config_.fault_hook(kFaultSpatialAllocFail)) {
            throw std::bad_alloc();
          }
          index_->swap_remove(row);
        } catch (...) {
          index_dirty_ = true;
        }
      }
    }
    const auto from = store_.remove(id);  // present per the filter above
    ++churn_since_solve_;
    bound_gains_locked();
    metrics_.count_shard_mutations(*from, 1);
  }
  metrics_.count_mutations(effective.size());
}

void PlacementService::bound_gains_locked() {
  if (gains_.empty()) return;
  const double churn_fraction =
      static_cast<double>(churn_since_solve_) /
      static_cast<double>(std::max<std::size_t>(store_.size(), 1));
  if (churn_fraction > config_.full_solve_churn_fraction) gains_.clear();
}

void PlacementService::append_wal_locked(
    std::vector<std::pair<std::size_t, wal::WalRecord>>& records,
    const char* caller) {
  // Append-before-apply per shard. A failure after the first successful
  // append leaves some shard's log ahead of every store: poison-all,
  // nothing applied, the batch answers kInternalError (the ops were never
  // acked, so recovery replaying the stray records is the
  // unacked-may-survive case, not a lie).
  for (std::size_t i = 0; i < records.size(); ++i) {
    try {
      wal_->append(records[i].first, records[i].second);
    } catch (const wal::WalError&) {
      if (i > 0) {
        wal_->poison_all(std::string(caller) +
                         ": partial multi-shard append");
      }
      throw;  // store untouched either way
    }
  }
}

void PlacementService::commit_wal_locked() {
  if (wal_ != nullptr) wal_->commit_all();  // cross-shard group commit
}

void PlacementService::describe_metrics(obs::Registry& registry) const {
  metrics_.describe(registry);
  if (wal_ != nullptr) wal_->describe(registry);
}

void PlacementService::poison_wal_locked(const std::string& reason) {
  if (wal_ != nullptr) wal_->poison_all(reason);
}

void PlacementService::maybe_snapshot_locked() {
  // A failed checkpoint poisons the writer but must not retro-fail the
  // mutations that were already logged and acked; the next append
  // surfaces the poison as kInternalError.
  if (wal_ == nullptr || !wal_->wants_snapshot()) return;
  try {
    // Shards checkpoint independently: only the writers whose own op
    // budget tripped roll; quiet shards keep their cheap short logs.
    for (std::size_t s = 0; s < wal_->shard_count(); ++s) {
      wal::WalWriter& writer = wal_->writer(s);
      if (!writer.wants_snapshot()) continue;
      writer.write_snapshot(shard_wal_snapshot_locked(s));
    }
  } catch (const wal::WalError&) {
  }
}

wal::WalSnapshot PlacementService::wal_snapshot_locked() const {
  return to_wal_snapshot(store_.global_snapshot());
}

wal::WalSnapshot PlacementService::shard_wal_snapshot_locked(
    std::size_t s) const {
  return to_wal_snapshot(store_.shard(s).snapshot());
}

void PlacementService::ensure_index_locked(const core::Problem& problem,
                                           bool warm) {
  // The carried index is a UniformGridIndex, which stops at kGridMaxDim.
  // A warm solve lends the clean carried grid, which answers kAuto without
  // the O(n) bounding-box pass; a full solve is O(n) anyway and decides
  // afresh.
  const spatial::SpatialIndex* lent =
      warm && !index_dirty_ ? index_.get() : nullptr;
  const bool want = !store_.empty() && config_.dim <= spatial::kGridMaxDim &&
                    core::kernels::should_index(problem, lent);
  if (!want) {
    publish_spatial_locked();
    index_.reset();
    index_dirty_ = false;
    return;
  }
  // Fault seam: treat the carried index as corrupt (what a failed
  // verify() would report) and take the rebuild path.
  if (index_ != nullptr && config_.fault_hook &&
      config_.fault_hook(kFaultSpatialCorrupt)) {
    index_dirty_ = true;
  }
  if (index_ != nullptr && !index_dirty_ &&
      index_->size() == store_.size()) {
    return;  // carried across the churn delta, ready to query
  }
  publish_spatial_locked();
  index_ = std::make_unique<spatial::UniformGridIndex>(problem.points(),
                                                       config_.radius);
  index_dirty_ = false;
  index_published_ = spatial::IndexStats{};  // fresh counters (build = 1 rebuild)
}

void PlacementService::publish_spatial_locked() {
  if (index_ == nullptr) return;
  const spatial::IndexStats now = index_->stats();
  spatial::IndexStats delta;
  delta.queries = now.queries - index_published_.queries;
  delta.points_touched = now.points_touched - index_published_.points_touched;
  delta.incremental_updates =
      now.incremental_updates - index_published_.incremental_updates;
  delta.rebuilds = now.rebuilds - index_published_.rebuilds;
  metrics_.add_spatial(delta);
  index_published_ = now;
}

double PlacementService::evaluate_locked(const geo::PointSet& centers) {
  const SolveRows rows(store_, config_);
  return core::objective_value(rows.problem(), centers);
}

const PlacementView& PlacementService::solve_locked() {
  if (view_.has_value() && churn_since_solve_ == 0) return *view_;

  if (store_.empty()) {
    forget_population_locked();
    PlacementView view;
    view.epoch = store_.epoch();
    view.solution.solver_name = "empty";
    view.solution.centers = geo::PointSet(config_.dim);
    view_ = std::move(view);
    return *view_;
  }

  const std::uint64_t epoch = store_.epoch();
  const std::size_t population = store_.size();
  // The served placement is the history: a warm re-solve starts from its
  // centers while it still has k of them (an empty-out serves none) and
  // churn since it stayed small.
  const double churn_fraction =
      static_cast<double>(churn_since_solve_) /
      static_cast<double>(std::max<std::size_t>(population, 1));
  const bool incremental =
      view_.has_value() && view_->solution.centers.size() == config_.k &&
      churn_fraction <= config_.full_solve_churn_fraction;

  core::Solution solution;
  double seconds = 0.0;
  {
    // At one store shard the solve reads the store's own rows, lent to it
    // until this block ends: a warm re-solve copies no rows.
    const SolveRows rows(store_, config_);
    const core::Problem& problem = rows.problem();

    // Carry the coverage index into the solve: rebuilt only when dirty or
    // out of step, otherwise the incremental mirror already brought it to
    // this epoch. The sharded solver evaluates (and grid-splits) through it,
    // and the polish gathers its swap balls from it. The full solve splits
    // the global rows itself, whatever the store-shard count.
    ensure_index_locked(problem, incremental);
    sharded_->set_shared_index(index_.get());

    const auto start = Clock::now();
    if (incremental) {
      solution = polish_locked(problem, nullptr);
    } else {
      // A full solve's polish sums every row and hands the gains on.
      gains_.clear();
      solution = sharded_->solve(problem, config_.k);
      // The shard grids' queries count like the polish's own grid's. Their
      // builds, one per shard per full solve, stay out of the rebuild
      // counter, which keeps counting the carried and polish grids.
      spatial::IndexStats shard_grids = sharded_->last_stats().index;
      shard_grids.rebuilds = 0;
      metrics_.add_spatial(shard_grids);
      if (config_.solver == SolverTier::kLs && !solution.centers.empty()) {
        solution = polish_locked(problem, &solution);
      }
    }
    seconds = std::chrono::duration<double>(Clock::now() - start).count();
  }
  for (std::size_t s = 0; s < store_.shard_count(); ++s) {
    metrics_.set_shard_rows(s, store_.shard(s).size());
  }
  publish_spatial_locked();
  metrics_.record_solve(seconds, incremental);
  trace::SpanCollector::global().record(
      incremental ? "serve.solve.incremental" : "serve.solve.full", seconds);

  PlacementView view;
  view.epoch = epoch;
  view.objective = solution.total_reward;
  view.population = population;
  view.solution = std::move(solution);
  view_ = std::move(view);
  churn_since_solve_ = 0;
  recent_points_.clear();
  return *view_;
}

core::Solution PlacementService::polish_locked(const core::Problem& problem,
                                              const core::Solution* full) {
  const bool deep = config_.solver == SolverTier::kLs;
  core::LsConfig search;
  geo::PointSet pool(config_.dim);
  if (deep) {
    search.fault_hook = config_.fault_hook;
  } else {
    search.max_sweeps = kWarmSweeps;
    search.shift_moves = false;
    pool = incremental_pool_locked();
  }
  const geo::PointSet& candidates = pool.empty() ? problem.points() : pool;
  // The carried coverage index, when present, serves the delta
  // evaluations; the polish unmasks it and kernels::ActiveSet re-unmasks at
  // its next solve, so lending it both ways is safe under the service
  // mutex. A polish abort (ls.eval_throw) falls back to the seed (and
  // empties gains_). With one store shard the gains carry between
  // polishes; more shards shift global rows on every mutation.
  core::GainCache* gains =
      deep && store_.shard_count() == 1 ? &gains_ : nullptr;
  core::LsStats stats;
  const auto polish_start = Clock::now();
  core::Solution out =
      full != nullptr
          ? core::polish(problem, *full, candidates, search, &stats,
                         index_.get(), gains)
          : core::polish(problem, view_->solution.centers, candidates, search,
                         &stats, index_.get(), gains);
  if (full == nullptr) out.solver_name = "warm-start";
  // Without a carried index the polish queries a grid of its own, which
  // publish_spatial_locked never sees.
  metrics_.add_spatial(stats.owned_index);
  if (deep) {
    metrics_.add_ls(stats);
    trace::SpanCollector::global().record(
        "serve.solve.polish",
        std::chrono::duration<double>(Clock::now() - polish_start).count());
  }
  return out;
}

geo::PointSet PlacementService::incremental_pool_locked() const {
  geo::PointSet pool(config_.dim);
  // Newest churned-in users first: they are where coverage is missing.
  for (auto it = recent_points_.rbegin();
       it != recent_points_.rend() && pool.size() < kWarmCandidates; ++it) {
    pool.push_back(geo::ConstVec(it->data(), it->size()));
  }
  // Then the cached per-shard winners of the last full solve: good centers
  // for the surviving population.
  const geo::PointSet& cached = sharded_->last_candidates();
  for (std::size_t j = 0; j < cached.size() && pool.size() < kWarmCandidates;
       ++j) {
    pool.push_back(cached[j]);
  }
  return pool;  // empty -> the polish runs over every instance point
}

void PlacementService::count_affinity_locked(const Request& request) {
  // Loop->shard affinity observability (store_shards > 1 only): would a
  // "loop i owns shard i % store_shards" assignment have kept this
  // mutation loop-local? Hits/misses quantify how much cross-shard
  // traffic full per-loop ownership (the follow-on) would eliminate.
  if (store_.shard_count() <= 1 ||
      request.shard_hint == Request::kNoShardHint) {
    return;
  }
  std::optional<std::size_t> target;
  if (request.type == RequestType::kAddUsers && !request.users.empty()) {
    const auto& interest = request.users.front().interest;
    if (interest.size() == config_.dim) {
      target = store_.shard_of_point(
          geo::ConstVec(interest.data(), interest.size()));
    }
  } else if (request.type == RequestType::kRemoveUsers &&
             !request.ids.empty()) {
    target = store_.shard_of_id(request.ids.front());
  }
  if (!target.has_value()) return;
  const std::size_t owner_loop = request.shard_hint % store_.shard_count();
  metrics_.count_affinity(owner_loop == *target);
}

void PlacementService::process_batch(std::vector<Request> batch) {
  trace::ScopedSpan span("serve.batch");
  metrics_.record_batch(batch.size());
  std::lock_guard<std::mutex> lock(mutex_);

  // Mutations first, in arrival order; queries then observe the whole
  // batch (that is the point of batching: one solve amortizes over every
  // request that arrived together). A request that fails validation or
  // throws must not poison the rest of the batch: its status is recorded
  // and every promise below is still fulfilled — a broken promise hangs
  // (or throws std::future_error at) every blocking client.
  std::vector<ResponseStatus> status(batch.size(), ResponseStatus::kOk);
  std::uint64_t queries = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Request& request = batch[i];
    count_affinity_locked(request);
    switch (request.type) {
      case RequestType::kAddUsers:
        try {
          if (read_only()) throw InvalidArgument("service is read-only");
          // Fault seam: a forced allocation failure fires *before* any
          // store mutation, so a kInternalError answer implies an
          // untouched store (the chaos replay check depends on this).
          if (config_.fault_hook && config_.fault_hook(kFaultAllocFail)) {
            throw std::bad_alloc();
          }
          apply_add_locked(request.users);
        } catch (const InvalidArgument&) {
          status[i] = ResponseStatus::kBadRequest;
          metrics_.count_bad_request();
        } catch (...) {
          // Includes wal::WalError: the append failed, so the store was
          // not touched and nothing was acked durable.
          status[i] = ResponseStatus::kInternalError;
          metrics_.count_internal_error();
        }
        break;
      case RequestType::kRemoveUsers:
        try {
          if (read_only()) throw InvalidArgument("service is read-only");
          apply_remove_locked(request.ids);
        } catch (const InvalidArgument&) {
          status[i] = ResponseStatus::kBadRequest;
          metrics_.count_bad_request();
        } catch (...) {
          status[i] = ResponseStatus::kInternalError;
          metrics_.count_internal_error();
        }
        break;
      case RequestType::kQueryPlacement:
        ++queries;
        break;
      case RequestType::kEvaluate:
        ++queries;
        // The direct evaluate() API throws on these; the batched path must
        // answer instead of silently replying kOk with objective 0.
        if (!request.centers.has_value() || request.centers->empty() ||
            request.centers->dim() != config_.dim) {
          status[i] = ResponseStatus::kBadRequest;
          metrics_.count_bad_request();
        }
        break;
    }
  }
  metrics_.count_queries(queries);

  // Durability barrier before any reply leaves: one fsync covers every
  // mutation in the batch (the point of group commit). If it fails, the
  // mutations are applied in memory but of unknown durability — every
  // would-be-kOk mutation is re-answered kInternalError instead.
  const auto is_mutation = [](const Request& request) {
    return request.type == RequestType::kAddUsers ||
           request.type == RequestType::kRemoveUsers;
  };
  bool mutated = false;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (is_mutation(batch[i]) && status[i] == ResponseStatus::kOk) {
      mutated = true;
    }
  }
  if (wal_ != nullptr && mutated) {
    try {
      commit_wal_locked();
      maybe_snapshot_locked();
    } catch (const wal::WalError&) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (is_mutation(batch[i]) && status[i] == ResponseStatus::kOk) {
          status[i] = ResponseStatus::kInternalError;
          metrics_.count_internal_error();
        }
      }
    }
  }

  for (std::size_t i = 0; i < batch.size(); ++i) {
    Request& request = batch[i];
    Response response;
    response.status = status[i];
    response.epoch = store_.epoch();
    if (response.status == ResponseStatus::kOk) {
      try {
        switch (request.type) {
          case RequestType::kAddUsers:
          case RequestType::kRemoveUsers:
            break;
          case RequestType::kQueryPlacement: {
            // Fault seam: fires before solve_locked touches any state, so
            // the cached view and churn accounting stay consistent.
            if (config_.fault_hook && config_.fault_hook(kFaultSolverThrow)) {
              throw std::runtime_error("injected solver failure");
            }
            const PlacementView& view = solve_locked();
            response.objective = view.objective;
            // Trimmed copy: batched callers consume the centers (and the
            // reward summary), never the n-sized residual vector — copying
            // it would cost O(population) per query (8 MB per reply at
            // n = 1M) on the hottest read path. The full residual stays
            // available via the synchronous placement() API.
            core::Solution trimmed;
            trimmed.solver_name = view.solution.solver_name;
            trimmed.centers = view.solution.centers;
            trimmed.round_rewards = view.solution.round_rewards;
            trimmed.total_reward = view.solution.total_reward;
            response.solution = std::move(trimmed);
            break;
          }
          case RequestType::kEvaluate: {
            if (config_.fault_hook && config_.fault_hook(kFaultSolverThrow)) {
              throw std::runtime_error("injected solver failure");
            }
            if (!store_.empty()) {
              response.objective = evaluate_locked(*request.centers);
            }
            break;
          }
        }
      } catch (...) {
        response = Response{};
        response.status = ResponseStatus::kInternalError;
        response.epoch = store_.epoch();
        metrics_.count_internal_error();
      }
    }
    try {
      request.reply.set_value(std::move(response));
    } catch (const std::future_error&) {
      // Promise already satisfied or abandoned — nothing left to tell.
    }
  }
}

}  // namespace mmph::serve
