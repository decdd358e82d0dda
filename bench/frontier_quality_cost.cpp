// Quality/cost frontier: every solver's mean approximation ratio plotted
// against its mean solve time on identical instances — the practical
// "which algorithm should I deploy" view the paper's complexity table
// (Theorems 3-4) implies but never measures.
//
//   ./build/bench/frontier_quality_cost [--trials T] [--n N] [--k K]
//       [--seed S]

#include <chrono>
#include <iostream>

#include "mmph/core/registry.hpp"
#include "mmph/io/args.hpp"
#include "mmph/io/stats.hpp"
#include "mmph/io/table.hpp"
#include "mmph/random/workload.hpp"

int main(int argc, char** argv) {
  using namespace mmph;
  try {
    io::Args args(argc, argv);
    const std::size_t trials =
        static_cast<std::size_t>(args.get_int("trials", 10));
    const std::size_t n = static_cast<std::size_t>(args.get_int("n", 40));
    const std::size_t k = static_cast<std::size_t>(args.get_int("k", 4));
    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.get_int("seed", 2011));
    args.finish();

    std::cout << "quality/cost frontier: n=" << n << ", k=" << k
              << ", 2-D 2-norm, r=1, " << trials
              << " trials (ratio vs exhaustive)\n\n";

    const std::vector<std::string> solvers{
        "random",       "kmeans",     "greedy3", "greedy2-stoch", "greedy2",
        "greedy2-lazy", "greedy2+ls", "greedy1", "greedy4"};

    std::map<std::string, io::RunningStats> ratio_stats;
    std::map<std::string, io::RunningStats> time_stats;

    const rnd::Rng base(seed);
    for (std::size_t t = 0; t < trials; ++t) {
      rnd::WorkloadSpec spec;
      spec.n = n;
      rnd::Rng rng = base.fork(t);
      const core::Problem p = core::Problem::from_workload(
          rnd::generate_workload(spec, rng), 1.0, geo::l2_metric());
      const double opt =
          core::make_solver("exhaustive", p)->solve(p, k).total_reward;
      for (const std::string& name : solvers) {
        const auto solver = core::make_solver(name, p);
        const auto t0 = std::chrono::steady_clock::now();
        const double reward = solver->solve(p, k).total_reward;
        const auto t1 = std::chrono::steady_clock::now();
        ratio_stats[name].add(reward / opt);
        time_stats[name].add(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
      }
    }

    io::Table table({"solver", "mean ratio", "mean time (us)", "ratio CI95"});
    for (const std::string& name : solvers) {
      table.add_row({name, io::percent(ratio_stats.at(name).mean()),
                     io::fixed(time_stats.at(name).mean(), 1),
                     "+/- " + io::percent(
                                  ratio_stats.at(name).ci95_half_width())});
    }
    table.print(std::cout);
    std::cout << "\nreading: the frontier runs random -> kmeans -> greedy3 "
                 "-> greedy2 family -> greedy4;\npay more compute, get a "
                 "higher ratio — with the lazy variant shifting cost "
                 "without\nchanging quality.\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "frontier_quality_cost: " << e.what() << "\n";
    return 1;
  }
}
