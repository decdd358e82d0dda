// Serving-layer throughput: how fast can each strategy absorb a churn
// slot (1% of users replaced) and produce fresh centers?
//
//   monolithic          rebuild the Problem, re-run core::LazyGreedySolver
//   sharded-full        PlacementService forced to a full sharded solve
//   sharded-incremental PlacementService warm-refining from the last centers
//
// Two scenarios, each row tagged with its box side:
//   - dense (--n): users uniform in the paper's 4×4 box, where a coverage
//     ball holds ~20% of them and kAuto keeps no index. The incremental
//     strategy is also swept over region-shard counts {1, 2, 4}
//     (`store_shards` in each row): at >1 the store and its rows are split
//     by spatial region, but a churn slot still polishes the whole
//     placement, so the sweep prices the routing and the shard-ordered
//     global rows, not a smaller re-solve.
//   - constant density: n = 100k users at 10 per unit² (box side 100),
//     the regime perfbench gates, where the service carries its grid.
//     Both service strategies run at store shards 1 and 4: at one shard a
//     solve reads the store's own rows, above one it gathers the shards'
//     rows into one copy.
//
// A plain timed repro (like perf_kernels): it emits BENCH_serve.json
// (config + per-strategy slots/sec and per-slot latency percentiles) so
// CI and the tutorial can diff numbers across machines. slots/sec is
// churn slots absorbed per second, center-refresh included.
//
//   ./perf_serve --n 2048,8192 --slots 12 --out BENCH_serve.json

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "box.hpp"
#include "mmph/core/lazy_greedy.hpp"
#include "mmph/io/args.hpp"
#include "mmph/io/stats.hpp"
#include "mmph/random/rng.hpp"
#include "mmph/serve/placement_service.hpp"

namespace {

using namespace mmph;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kCenters = 8;
constexpr double kRadius = 1.0;
constexpr double kDenseBoxSide = 4.0;
constexpr std::size_t kDensityUsers = 100000;
constexpr double kUsersPerUnitArea = 10.0;

struct Row {
  std::size_t n = 0;
  double box_side = kDenseBoxSide;
  std::string strategy;
  std::size_t store_shards = 1;
  std::size_t slots = 0;
  double slots_per_sec = 0.0;
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  double speedup = 1.0;  // vs. monolithic at the same n
};

std::vector<std::size_t> parse_sizes(const std::string& csv) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok =
        csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
    out.push_back(static_cast<std::size_t>(std::stoull(tok)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

serve::UserRecord fresh_user(std::uint64_t id, double side, rnd::Rng& rng) {
  serve::UserRecord rec;
  rec.id = id;
  rec.weight = static_cast<double>(rng.uniform_int(1, 5));
  rec.interest = {rng.uniform(0.0, side), rng.uniform(0.0, side)};
  return rec;
}

std::vector<serve::UserRecord> seed_users(std::size_t n, double side,
                                          rnd::Rng& rng) {
  std::vector<serve::UserRecord> users;
  users.reserve(n);
  for (std::uint64_t id = 0; id < n; ++id) {
    users.push_back(fresh_user(id, side, rng));
  }
  return users;
}

/// Replaces ~1% of the population; fills removed/added with the delta.
void churn_slot(std::vector<serve::UserRecord>& users, double side,
                std::uint64_t& next_id, rnd::Rng& rng,
                std::vector<std::uint64_t>& removed,
                std::vector<serve::UserRecord>& added) {
  removed.clear();
  added.clear();
  const std::size_t churn = std::max<std::size_t>(1, users.size() / 100);
  for (std::size_t c = 0; c < churn; ++c) {
    const auto slot = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(users.size()) - 1));
    removed.push_back(users[slot].id);
    users[slot] = fresh_user(next_id++, side, rng);
    added.push_back(users[slot]);
  }
}

Row summarize(std::size_t n, double side, std::string strategy,
              std::vector<double> slot_seconds) {
  Row row;
  row.n = n;
  row.box_side = side;
  row.strategy = std::move(strategy);
  row.slots = slot_seconds.size();
  double total = 0.0;
  for (const double s : slot_seconds) total += s;
  row.slots_per_sec =
      total > 0.0 ? static_cast<double>(slot_seconds.size()) / total : 0.0;
  row.p50_seconds = io::percentile(slot_seconds, 0.50);
  row.p99_seconds = io::percentile_inplace(slot_seconds, 0.99);
  return row;
}

serve::ServiceConfig service_config(double full_solve_churn_fraction,
                                    std::size_t store_shards) {
  serve::ServiceConfig config;
  config.k = kCenters;
  config.radius = kRadius;
  config.full_solve_churn_fraction = full_solve_churn_fraction;
  config.store_shards = store_shards;
  return config;
}

/// Times `slots` churn slots against a PlacementService configured with
/// the given full-solve threshold (0 = always full, 0.05 = incremental)
/// and region-shard count (1 = monolithic store, the pre-shard layout).
Row run_service(std::size_t n, double side, std::size_t slots,
                const char* name, double threshold, std::size_t store_shards,
                double& sink) {
  rnd::Rng rng(7);
  std::vector<serve::UserRecord> users = seed_users(n, side, rng);
  std::uint64_t next_id = n;
  serve::PlacementService service(service_config(threshold, store_shards));
  service.apply_add(users);
  sink += service.placement().objective;  // warm: first solve is untimed

  std::vector<std::uint64_t> removed;
  std::vector<serve::UserRecord> added;
  std::vector<double> slot_seconds;
  slot_seconds.reserve(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    churn_slot(users, side, next_id, rng, removed, added);
    const auto start = Clock::now();
    service.apply_remove(removed);
    service.apply_add(added);
    sink += service.placement().objective;
    slot_seconds.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
  Row row = summarize(n, side, name, std::move(slot_seconds));
  row.store_shards = store_shards;
  return row;
}

Row run_monolithic(std::size_t n, double side, std::size_t slots,
                   double& sink) {
  rnd::Rng rng(7);
  std::vector<serve::UserRecord> users = seed_users(n, side, rng);
  std::uint64_t next_id = n;
  const core::LazyGreedySolver solver;
  std::vector<std::uint64_t> removed;
  std::vector<serve::UserRecord> added;
  std::vector<double> slot_seconds;
  slot_seconds.reserve(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    churn_slot(users, side, next_id, rng, removed, added);
    const auto start = Clock::now();
    geo::PointSet points(2);
    points.reserve(users.size());
    std::vector<double> weights;
    weights.reserve(users.size());
    for (const serve::UserRecord& u : users) {
      points.push_back(geo::ConstVec(u.interest.data(), u.interest.size()));
      weights.push_back(u.weight);
    }
    core::Problem problem(std::move(points), std::move(weights), kRadius,
                          geo::l2_metric());
    sink += solver.solve(problem, kCenters).total_reward;
    slot_seconds.push_back(
        std::chrono::duration<double>(Clock::now() - start).count());
  }
  return summarize(n, side, "monolithic", std::move(slot_seconds));
}

}  // namespace

int main(int argc, char** argv) try {
  io::Args args(argc, argv);
  const std::string n_csv = args.get_string("n", "2048,8192");
  const std::size_t slots = static_cast<std::size_t>(args.get_int("slots", 12));
  const std::string out_path = args.get_string("out", "BENCH_serve.json");
  args.finish();

  double sink = 0.0;  // keeps every objective live
  std::vector<Row> rows;
  // One service row per strategy and store-shard count, each against the
  // monolithic re-solve at the same n and box.
  const auto add_service_row = [&](std::size_t n, double side,
                                   const char* name, double threshold,
                                   std::size_t shards, const Row& mono) {
    Row row = run_service(n, side, slots, name, threshold, shards, sink);
    row.speedup = row.slots_per_sec / mono.slots_per_sec;
    std::printf("n=%-7zu side=%-6.1f store-shards=%zu %-19s %8.2f slots/s "
                "(%5.2fx vs monolithic)\n",
                n, side, shards, name, row.slots_per_sec, row.speedup);
    rows.push_back(std::move(row));
  };
  for (const std::size_t n : parse_sizes(n_csv)) {
    const Row mono = run_monolithic(n, kDenseBoxSide, slots, sink);
    std::printf("n=%-7zu side=%-6.1f monolithic %8.2f slots/s\n", n,
                kDenseBoxSide, mono.slots_per_sec);
    rows.push_back(mono);
    add_service_row(n, kDenseBoxSide, "sharded-full", 0.0, 1, mono);
    // Region-sharded store sweep: the same incremental churn workload
    // routed through 1, 2 and 4 store shards.
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      add_service_row(n, kDenseBoxSide, "sharded-incremental", 0.05, shards,
                      mono);
    }
  }
  {
    const std::size_t n = kDensityUsers;
    const double side = std::sqrt(static_cast<double>(n) / kUsersPerUnitArea);
    const Row mono = run_monolithic(n, side, slots, sink);
    std::printf("n=%-7zu side=%-6.1f monolithic %8.2f slots/s\n", n, side,
                mono.slots_per_sec);
    rows.push_back(mono);
    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      add_service_row(n, side, "sharded-full", 0.0, shards, mono);
      add_service_row(n, side, "sharded-incremental", 0.05, shards, mono);
    }
  }
  if (sink == -1.0) std::printf("unreachable\n");

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"serve\",\n  \"scenario\": "
         "\"uniform 2-D L2, k 8, radius 1.0, 1% churn per slot; box side 4.0 "
         "(--n) or 100 at n 100000, 10 users per unit^2\","
         "\n  \"box\": " << bench::box_json()
      << ",\n  \"config\": {\"slots\": " << slots << "},\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"n\": " << r.n << ", \"box_side\": " << r.box_side
        << ", \"strategy\": \"" << r.strategy
        << "\", \"store_shards\": " << r.store_shards
        << ", \"slots_per_sec\": " << r.slots_per_sec
        << ", \"p50_seconds\": " << r.p50_seconds
        << ", \"p99_seconds\": " << r.p99_seconds
        << ", \"speedup_vs_monolithic\": " << r.speedup << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "perf_serve: %s\n", e.what());
  return 1;
}
