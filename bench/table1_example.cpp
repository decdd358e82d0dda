// Table I / Fig. 3 reproduction: one worked example.
//
// 40 nodes in a 4x4 2-D space, 2-norm, weights random integers 1..5,
// k = 4 rounds. Prints each algorithm's per-round coverage reward (the
// paper's Table I) and the chosen centers (the star markers of Fig. 3).
//
// The paper does not publish its example's point layout, so absolute
// numbers differ; the reproduced property is the per-round accounting and
// the relationship the paper highlights: greedy 4 collects the largest
// per-round coverage rewards on its own example.
//
//   ./build/bench/table1_example [--seed N] [--radius R] [--csv]

#include <iostream>

#include "mmph/core/registry.hpp"
#include "mmph/io/args.hpp"
#include "mmph/io/table.hpp"
#include "mmph/random/workload.hpp"

int main(int argc, char** argv) {
  using namespace mmph;
  try {
    io::Args args(argc, argv);
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.get_int("seed", 2011));
    const double radius = args.get_double("radius", 1.0);
    const bool as_csv = args.get_flag("csv");
    args.finish();

    rnd::WorkloadSpec spec;  // 40 nodes, 4x4, weights 1..5 — the paper's
    rnd::Rng rng(seed);      // Table I configuration
    const core::Problem problem = core::Problem::from_workload(
        rnd::generate_workload(spec, rng), radius, geo::l2_metric());

    std::cout << "Table I: per-round coverage reward, 40 nodes, 4x4 2-D, "
                 "2-norm, k=4, r=" << radius << ", seed=" << seed << "\n\n";

    io::Table table({"Coverage reward", "1", "2", "3", "4", "Total"});
    std::vector<core::Solution> solutions;
    for (const char* name : {"greedy2", "greedy3", "greedy4"}) {
      const core::Solution s =
          core::make_solver(name, problem)->solve(problem, 4);
      std::vector<std::string> row{name};
      for (double g : s.round_rewards) row.push_back(io::fixed(g, 4));
      row.push_back(io::fixed(s.total_reward, 4));
      table.add_row(std::move(row));
      solutions.push_back(s);
    }
    if (as_csv) {
      table.print_csv(std::cout);
    } else {
      table.print(std::cout);
    }

    std::cout << "\nFig. 3 counterpart — selected centers per round:\n";
    for (const core::Solution& s : solutions) {
      std::cout << "  " << s.solver_name << ":";
      for (std::size_t j = 0; j < s.centers.size(); ++j) {
        std::cout << "  (" << io::fixed(s.centers[j][0], 2) << ", "
                  << io::fixed(s.centers[j][1], 2) << ")";
      }
      std::cout << "\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "table1_example: " << e.what() << "\n";
    return 1;
  }
}
