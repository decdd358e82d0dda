// Every solve and evaluation reads the store's rows: at one store shard
// the store lends its own arrays, uncopied, and gets them back when the
// solve or evaluation ends, a throw included; above one the solve reads
// their concatenation. After every step of a churn script the store's
// rows must equal bit for bit those of a twin service that received the
// same mutations and never solved (its rows were never lent), and every
// evaluation must equal core::objective_value on the twin's rows.

#include "mmph/serve/placement_service.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "mmph/core/kernels.hpp"
#include "mmph/core/objective.hpp"
#include "mmph/random/rng.hpp"

namespace mmph::serve {
namespace {

UserRecord user(std::uint64_t id, double x, double y, double weight) {
  return UserRecord{id, {x, y}, weight};
}

std::vector<UserRecord> random_users(std::uint64_t first, std::size_t count,
                                     double side, rnd::Rng& rng) {
  std::vector<UserRecord> users;
  for (std::uint64_t id = first; id < first + count; ++id) {
    users.push_back(user(id, rng.uniform(0.0, side), rng.uniform(0.0, side),
                         static_cast<double>(rng.uniform_int(1, 5))));
  }
  return users;
}

/// A churn script run on a service that solves and evaluates after its
/// steps and on a twin that only takes the mutations.
class Script {
 public:
  explicit Script(const ServiceConfig& config)
      : solving_(with_hook(config)), twin_(config) {}

  void add(const std::vector<UserRecord>& users) {
    solving_.apply_add(users);
    twin_.apply_add(users);
  }
  void remove(const std::vector<std::uint64_t>& ids) {
    solving_.apply_remove(ids);
    twin_.apply_remove(ids);
  }
  void restore(const wal::WalSnapshot& snapshot) {
    solving_.restore_from(snapshot);
    twin_.restore_from(snapshot);
  }
  /// The user on row \p row of the store.
  [[nodiscard]] std::uint64_t row_id(std::size_t row) {
    return twin_.wal_snapshot().ids.at(row);
  }
  [[nodiscard]] std::vector<std::uint64_t> everyone() {
    return twin_.wal_snapshot().ids;
  }
  [[nodiscard]] PlacementService& solving() { return solving_; }

  /// Solves, then evaluates the served centers and a few fixed sets (a
  /// center inside the users' box, outside it and on its edge), through
  /// the direct and the batched API; after each, the store's rows must
  /// be the twin's.
  void solve_and_evaluate(const std::string& step) {
    const PlacementView view = solving_.placement();
    EXPECT_EQ(view.population, twin_.population()) << step;
    EXPECT_EQ(view.epoch, twin_.epoch()) << step;
    expect_rows_are_the_twins(step + ", after the solve");
    if (twin_.population() == 0) return;
    const wal::WalSnapshot rows = twin_.wal_snapshot();
    const ServiceConfig& config = twin_.config();
    const core::Problem problem(geo::PointSet(rows.dim, rows.coords),
                                rows.weights, config.radius, config.metric,
                                config.shape);
    std::vector<geo::PointSet> center_sets = {
        geo::PointSet::from_rows({{2.0, 2.0}, {0.5, 3.0}}),
        geo::PointSet::from_rows({{-4.0, 1.0}, {25.0, 30.0}}),
        geo::PointSet::from_rows({{0.0, 1.5}, {4.0, 4.0}, {4.0, 0.0}}),
    };
    if (!view.solution.centers.empty()) {
      center_sets.push_back(view.solution.centers);
    }
    for (std::size_t c = 0; c < center_sets.size(); ++c) {
      const double want = core::objective_value(problem, center_sets[c]);
      EXPECT_EQ(solving_.evaluate(center_sets[c]), want)  // bitwise
          << step << ", set " << c;
      std::future<Response> reply =
          solving_.submit(Request::evaluate(center_sets[c]));
      EXPECT_EQ(solving_.pump(), 1u);
      const Response response = reply.get();
      EXPECT_EQ(response.status, ResponseStatus::kOk) << step;
      EXPECT_EQ(response.objective, want) << step << ", set " << c;
    }
    expect_rows_are_the_twins(step + ", after the evaluations");
  }

  /// The next solve throws from inside, while it holds the rows.
  void throw_in_next_solve() { throw_in_solve_ = true; }

  void expect_rows_are_the_twins(const std::string& step) {
    const wal::WalSnapshot got = solving_.wal_snapshot();
    const wal::WalSnapshot want = twin_.wal_snapshot();
    EXPECT_EQ(got.epoch, want.epoch) << step;
    EXPECT_EQ(got.ids, want.ids) << step;
    EXPECT_EQ(got.weights, want.weights) << step;  // bitwise
    EXPECT_EQ(got.coords, want.coords) << step;
  }

 private:
  /// The fault seam consulted when a solve checks its carried grid, with
  /// the store's rows already lent: a throw there must still return them.
  ServiceConfig with_hook(ServiceConfig config) {
    config.fault_hook = [this](std::string_view site) -> bool {
      if (site == kFaultSpatialCorrupt && throw_in_solve_) {
        throw_in_solve_ = false;
        throw std::runtime_error("thrown inside a solve");
      }
      return false;
    };
    return config;
  }

  bool throw_in_solve_ = false;
  PlacementService solving_;
  PlacementService twin_;
};

void run_script(SolverTier tier, std::size_t store_shards) {
  const core::kernels::ScopedIndexMode mode(core::kernels::IndexMode::kGrid);
  ServiceConfig config;
  config.k = 3;
  config.solver = tier;
  config.store_shards = store_shards;
  config.full_solve_churn_fraction = 0.2;  // most solves below are warm
  Script script(config);

  rnd::Rng rng(17);
  script.add(random_users(1, 40, 4.0, rng));
  script.solve_and_evaluate("first solve");

  script.add(random_users(100, 3, 4.0, rng));
  script.solve_and_evaluate("joins");

  script.remove({script.row_id(7)});
  script.solve_and_evaluate("leave of a middle row");
  script.remove({script.row_id(script.solving().population() - 1)});
  script.solve_and_evaluate("leave of the last row");

  const std::uint64_t mover = script.row_id(4);
  script.add({user(mover, 0.5, 3.5, 2.0)});
  script.solve_and_evaluate("move");
  script.add({user(mover, 0.5, 3.5, 5.0)});
  script.solve_and_evaluate("weight-only update");

  // One batch naming ids twice: a join then its move, an update then a
  // weight-only change, and a row that leaves and comes back.
  const std::uint64_t twice = script.row_id(2);
  script.add({user(200, 1.0, 1.0, 1.0), user(twice, 2.0, 2.0, 3.0),
              user(200, 1.5, 0.5, 1.0), user(twice, 2.0, 2.0, 4.0)});
  const std::uint64_t back = script.row_id(0);
  script.remove({back, script.row_id(9), back});
  script.add({user(back, 3.0, 0.25, 2.0)});
  script.solve_and_evaluate("repeated ids");

  // A throw inside a solve still hands the rows back; the next solve
  // serves as if it never happened.
  script.add(random_users(250, 2, 4.0, rng));
  script.throw_in_next_solve();
  EXPECT_THROW((void)script.solving().placement(), std::runtime_error);
  script.expect_rows_are_the_twins("a throw inside a solve");
  script.solve_and_evaluate("after the throw");

  // Drain to empty, then regrow through the only row.
  script.remove(script.everyone());
  script.solve_and_evaluate("drained");
  script.add({user(300, 2.0, 2.0, 1.0)});
  script.solve_and_evaluate("one row");
  script.remove({300});
  script.solve_and_evaluate("the only row left");
  script.add(random_users(400, 30, 4.0, rng));
  script.solve_and_evaluate("regrown");
  script.add(random_users(500, 2, 4.0, rng));
  script.solve_and_evaluate("warm after regrowth");

  if (store_shards == 1) {  // restore_from installs one shard
    wal::WalSnapshot snapshot = script.solving().wal_snapshot();
    snapshot.epoch += 10;
    snapshot.weights.front() = 7.0;
    script.restore(snapshot);
    script.solve_and_evaluate("restored");
    script.add(random_users(600, 2, 4.0, rng));
    script.solve_and_evaluate("warm after restore");
  }
}

TEST(LentRows, LazySolvesHandTheStoreRowsBack) {
  run_script(SolverTier::kLazy, 1);
}

TEST(LentRows, LsSolvesHandTheStoreRowsBack) {
  run_script(SolverTier::kLs, 1);
}

TEST(LentRows, ShardedStoreSolvesLeaveTheRowsInPlace) {
  run_script(SolverTier::kLazy, 2);
}

}  // namespace
}  // namespace mmph::serve
