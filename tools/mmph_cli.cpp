// mmph command-line tool: generate, solve, evaluate and describe problem
// traces without writing any C++.
//
//   mmph_cli generate --n 40 --dim 2 --seed 7 --out problem.txt
//   mmph_cli solve    --problem problem.txt --solver greedy4 --k 4
//                     --out solution.txt
//   mmph_cli evaluate --problem problem.txt --solution solution.txt
//   mmph_cli describe --problem problem.txt
//   mmph_cli simulate --users 60 --slots 50 --solver greedy2 --k 4
//
// Traces use the versioned text format of mmph/trace/trace.hpp, so files
// produced here replay bit-exactly in library code and vice versa.

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <future>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "mmph/core/certificate.hpp"
#include "mmph/core/kernels.hpp"
#include "mmph/core/objective.hpp"
#include "mmph/core/registry.hpp"
#include "mmph/io/args.hpp"
#include "mmph/io/table.hpp"
#include "mmph/ls/bounds.hpp"
#include "mmph/net/client.hpp"
#include "mmph/net/replica.hpp"
#include "mmph/net/server.hpp"
#include "mmph/random/workload.hpp"
#include "mmph/serve/placement_service.hpp"
#include "mmph/sim/simulator.hpp"
#include "mmph/trace/span.hpp"
#include "mmph/trace/trace.hpp"
#include "mmph/wal/recovery.hpp"
#include "mmph/wal/writer.hpp"

namespace {

using namespace mmph;

int usage() {
  std::cerr <<
      "usage: mmph_cli <command> [--flags]\n"
      "commands:\n"
      "  generate  --n N --dim D --box SIDE --placement uniform|halton|clustered\n"
      "            --weights same|uniform-int|zipf --seed S --radius R\n"
      "            --norm l1|l2|linf --out FILE\n"
      "  solve     --problem FILE --solver NAME --k K [--pitch P]\n"
      "            [--index none|grid|auto] [--out FILE]\n"
      "            (NAME: any core solver, ls / ls-tabu included — lazy\n"
      "             greedy polished by shift/swap local search; greedy2+ls\n"
      "             reports as ls(greedy2))\n"
      "  evaluate  --problem FILE --solution FILE\n"
      "  describe  --problem FILE\n"
      "  compare   --problem FILE --k K [--solvers a,b,c] [--pitch P]\n"
      "  certify   --problem FILE --solution FILE [--pitch P]\n"
      "  simulate  --users N --slots T --solver NAME --k K [--radius R]\n"
      "            [--drift SIGMA] [--churn P] [--seed S]\n"
      "  serve-replay --users N --slots T --k K [--radius R] [--churn P]\n"
      "            [--batch B] [--shards S] [--store-shards C]\n"
      "            [--solver lazy|ls] [--threshold F] [--seed S]\n"
      "            [--index none|grid|auto]\n"
      "  serve-net [--listen [--port P] [--port-file FILE] [--run-seconds S]\n"
      "             [--loops N]] [--store-shards C] [--solver lazy|ls]\n"
      "            [--wal-dir DIR [--fsync always|group|never]\n"
      "             [--snapshot-every N]] [--primary HOST --primary-port P]\n"
      "            [--connect HOST --port P] [--users N] [--slots T] [--k K]\n"
      "            [--radius R] [--churn P] [--seed S] [--stats]\n"
      "            [--index none|grid|auto]\n"
      "            (neither --listen nor --connect: in-process self-test;\n"
      "             --stats scrapes and prints the metrics exposition;\n"
      "             --wal-dir makes a --listen server durable: it recovers\n"
      "             the store from DIR, then logs every mutation;\n"
      "             --store-shards C > 1 region-shards the store and the\n"
      "             log (per-shard dirs under --wal-dir; 1 = bit-identical\n"
      "             to the unsharded layout);\n"
      "             --primary makes a --listen server a read-only replica\n"
      "             streaming from another serve-net --listen --wal-dir)\n"
      "  stats     --port P [--host H]\n"
      "            (print Prometheus-style metrics from a serve-net --listen)\n"
      "  wal-dump  --dir DIR\n"
      "            (list checkpoints and log records, then the recovered\n"
      "             store digest — compare two directories with grep)\n"
      "  wal-recover --dir DIR [--dim D] [--shards C]\n"
      "            (dry-run crash recovery; --shards C > 1 replays each\n"
      "             shard dir independently and prints the per-shard table;\n"
      "             exit 1 when the log is not cleanly recoverable)\n";
  return 2;
}

/// Consumes an integer flag that must be strictly positive. "--k 0",
/// "--loops 0", "--store-shards -1" and friends used to wrap through the
/// size_t cast into absurd requests (or die on an internal assertion deep
/// in the stack); now they fail up front with a typed ParseError.
std::size_t get_positive(io::Args& args, const std::string& name,
                         std::int64_t fallback, const char* command) {
  const std::int64_t value = args.get_int(name, fallback);
  if (value < 1) {
    throw ParseError(std::string(command) + ": --" + name +
                     " must be >= 1 (got " + std::to_string(value) + ")");
  }
  return static_cast<std::size_t>(value);
}

/// Consumes --solver {lazy,ls} as a serve tier.
serve::SolverTier get_solver_tier(io::Args& args, const char* command) {
  const std::string text = args.get_string("solver", "lazy");
  const auto tier = serve::parse_solver_tier(text);
  if (!tier.has_value()) {
    throw ParseError(std::string(command) + ": unknown --solver '" + text +
                     "' (lazy|ls)");
  }
  return *tier;
}

/// Consumes --index {none,grid,auto} and installs it as the process-wide
/// coverage-index mode (kernels::set_index_mode). The index only changes
/// solve cost, never output bits, so the default stays kAuto.
void apply_index_flag(io::Args& args) {
  const std::string text = args.get_string("index", "auto");
  const auto mode = core::kernels::parse_index_mode(text);
  if (!mode.has_value()) {
    throw ParseError("unknown --index '" + text + "' (none|grid|auto)");
  }
  core::kernels::set_index_mode(*mode);
}

rnd::Placement parse_placement(const std::string& text) {
  if (text == "uniform") return rnd::Placement::kUniform;
  if (text == "halton") return rnd::Placement::kHalton;
  if (text == "clustered") return rnd::Placement::kClustered;
  throw ParseError("unknown placement '" + text + "'");
}

rnd::WeightScheme parse_weights(const std::string& text) {
  if (text == "same") return rnd::WeightScheme::kSame;
  if (text == "uniform-int") return rnd::WeightScheme::kUniformInt;
  if (text == "zipf") return rnd::WeightScheme::kZipf;
  throw ParseError("unknown weight scheme '" + text + "'");
}

int cmd_generate(io::Args& args) {
  rnd::WorkloadSpec spec;
  spec.n = static_cast<std::size_t>(args.get_int("n", 40));
  spec.dim = static_cast<std::size_t>(args.get_int("dim", 2));
  spec.box_side = args.get_double("box", 4.0);
  spec.placement = parse_placement(args.get_string("placement", "uniform"));
  spec.weights = parse_weights(args.get_string("weights", "uniform-int"));
  const double radius = args.get_double("radius", 1.0);
  const geo::Metric metric(geo::parse_norm(args.get_string("norm", "l2")));
  rnd::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 2011)));
  const std::string out = args.get_string("out", "");
  args.finish();

  const core::Problem problem = core::Problem::from_workload(
      rnd::generate_workload(spec, rng), radius, metric);
  if (out.empty()) {
    trace::write_problem(std::cout, problem);
  } else {
    trace::save_problem(out, problem);
    std::cout << "wrote " << out << " (" << spec.describe() << ")\n";
  }
  return 0;
}

int cmd_solve(io::Args& args) {
  const std::string problem_path = args.get_string("problem", "");
  const std::string solver_name = args.get_string("solver", "greedy2");
  const std::size_t k = get_positive(args, "k", 4, "solve");
  core::SolverConfig config;
  config.grid_pitch = args.get_double("pitch", 0.5);
  const std::string out = args.get_string("out", "");
  apply_index_flag(args);
  args.finish();
  if (problem_path.empty()) {
    throw ParseError("solve: --problem FILE is required");
  }

  const core::Problem problem = trace::load_problem(problem_path);
  if (k > problem.size()) {
    throw ParseError("solve: --k " + std::to_string(k) +
                     " exceeds the instance size n=" +
                     std::to_string(problem.size()));
  }
  const auto solve_start = std::chrono::steady_clock::now();
  const core::Solution solution =
      core::make_solver(solver_name, problem, config)->solve(problem, k);
  const double solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    solve_start)
          .count();
  if (out.empty()) {
    trace::write_solution(std::cout, solution);
  } else {
    trace::save_solution(out, solution);
  }
  std::cerr << solver_name << ": total reward "
            << io::fixed(solution.total_reward, 4) << " ("
            << io::percent(solution.total_reward / problem.total_weight())
            << " of demand) in " << io::fixed(solve_seconds, 3) << "s ["
            << core::kernels::index_mode_name(core::kernels::index_mode())
            << "]\n";
  return 0;
}

int cmd_evaluate(io::Args& args) {
  const std::string problem_path = args.get_string("problem", "");
  const std::string solution_path = args.get_string("solution", "");
  args.finish();
  if (problem_path.empty() || solution_path.empty()) {
    throw ParseError("evaluate: --problem and --solution are required");
  }
  const core::Problem problem = trace::load_problem(problem_path);
  const core::Solution solution = trace::load_solution(solution_path);
  const double f = core::objective_value(problem, solution.centers);
  io::Table table({"field", "value"});
  table.add_row({"solver", solution.solver_name});
  table.add_row({"k", std::to_string(solution.centers.size())});
  table.add_row({"stored total", io::fixed(solution.total_reward, 6)});
  table.add_row({"re-evaluated f(C)", io::fixed(f, 6)});
  table.add_row({"demand satisfied",
                 io::percent(f / problem.total_weight())});
  table.print(std::cout);
  const bool consistent = std::abs(f - solution.total_reward) < 1e-6;
  std::cout << (consistent ? "consistent\n"
                           : "MISMATCH between stored total and f(C)\n");
  return consistent ? 0 : 1;
}

int cmd_describe(io::Args& args) {
  const std::string problem_path = args.get_string("problem", "");
  args.finish();
  if (problem_path.empty()) {
    throw ParseError("describe: --problem FILE is required");
  }
  const core::Problem p = trace::load_problem(problem_path);
  const geo::Box box = p.points().bounding_box();
  io::Table table({"field", "value"});
  table.add_row({"points", std::to_string(p.size())});
  table.add_row({"dim", std::to_string(p.dim())});
  table.add_row({"metric", p.metric().name()});
  table.add_row({"radius", io::fixed(p.radius(), 4)});
  table.add_row({"reward shape",
                 core::reward_shape_name(p.reward_shape())});
  table.add_row({"total weight", io::fixed(p.total_weight(), 4)});
  std::string lo = "(", hi = "(";
  for (std::size_t d = 0; d < p.dim(); ++d) {
    if (d > 0) {
      lo += ", ";
      hi += ", ";
    }
    lo += io::fixed(box.lo[d], 2);
    hi += io::fixed(box.hi[d], 2);
  }
  table.add_row({"bbox lo", lo + ")"});
  table.add_row({"bbox hi", hi + ")"});
  table.print(std::cout);
  return 0;
}

int cmd_compare(io::Args& args) {
  const std::string problem_path = args.get_string("problem", "");
  const std::size_t k = get_positive(args, "k", 4, "compare");
  core::SolverConfig config;
  config.grid_pitch = args.get_double("pitch", 0.5);
  const std::string solver_list =
      args.get_string("solvers", "greedy1,greedy2,greedy3,greedy4");
  args.finish();
  if (problem_path.empty()) {
    throw ParseError("compare: --problem FILE is required");
  }
  const core::Problem problem = trace::load_problem(problem_path);
  if (k > problem.size()) {
    throw ParseError("compare: --k " + std::to_string(k) +
                     " exceeds the instance size n=" +
                     std::to_string(problem.size()));
  }

  std::vector<std::string> names;
  for (std::size_t pos = 0; pos <= solver_list.size();) {
    const std::size_t comma = solver_list.find(',', pos);
    const std::size_t end =
        comma == std::string::npos ? solver_list.size() : comma;
    if (end > pos) names.push_back(solver_list.substr(pos, end - pos));
    pos = end + 1;
  }
  if (names.empty()) throw ParseError("compare: empty solver list");

  io::Table table({"solver", "total reward", "share of demand"});
  for (const std::string& name : names) {
    const core::Solution s =
        core::make_solver(name, problem, config)->solve(problem, k);
    table.add_row({name, io::fixed(s.total_reward, 4),
                   io::percent(s.total_reward / problem.total_weight())});
  }
  table.print(std::cout);
  return 0;
}

int cmd_certify(io::Args& args) {
  const std::string problem_path = args.get_string("problem", "");
  const std::string solution_path = args.get_string("solution", "");
  const double pitch = args.get_double("pitch", 0.1);
  args.finish();
  if (problem_path.empty() || solution_path.empty()) {
    throw ParseError("certify: --problem and --solution are required");
  }
  const core::Problem problem = trace::load_problem(problem_path);
  const core::Solution solution = trace::load_solution(solution_path);
  const core::RatioCertificate cert =
      core::certify_ratio(problem, solution, pitch);
  io::Table table({"field", "value"});
  table.add_row({"solution value f(C)", io::fixed(cert.value, 6)});
  table.add_row({"certified continuous-optimum bound",
                 io::fixed(cert.upper_bound, 6)});
  table.add_row({"certified ratio (>= of true OPT)",
                 io::percent(cert.certified_ratio)});
  table.add_row({"certificate grid pitch", io::fixed(pitch, 3)});
  table.print(std::cout);
  return 0;
}

int cmd_simulate(io::Args& args) {
  sim::SimConfig cfg;
  cfg.users = static_cast<std::size_t>(args.get_int("users", 40));
  cfg.slots = static_cast<std::size_t>(args.get_int("slots", 50));
  cfg.k = static_cast<std::size_t>(args.get_int("k", 4));
  cfg.radius = args.get_double("radius", 1.0);
  cfg.drift.sigma = args.get_double("drift", 0.1);
  cfg.drift.churn_prob = args.get_double("churn", 0.0);
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 2011));
  const std::string solver_name = args.get_string("solver", "greedy2");
  args.finish();

  sim::BroadcastSimulator simulator(cfg, [&](const core::Problem& p) {
    return core::make_solver(solver_name, p);
  });
  const sim::SimReport report = simulator.run();
  io::Table table({"metric", "value"});
  table.add_row({"slots", std::to_string(report.slots.size())});
  table.add_row({"mean satisfaction", io::percent(report.mean_satisfaction)});
  table.add_row({"mean fairness", io::fixed(report.mean_fairness, 4)});
  table.add_row({"total reward", io::fixed(report.total_reward, 2)});
  table.add_row({"solve time (s)", io::fixed(report.total_solve_seconds, 3)});
  table.print(std::cout);
  return 0;
}

// Replays a churn workload against the serving layer: every slot removes
// and re-adds a fraction of the population, then queries the placement —
// all through the batched request path, so the run exercises the bounded
// queue, the sharded solver, and the incremental warm re-solve together.
int cmd_serve_replay(io::Args& args) {
  const std::size_t users = static_cast<std::size_t>(args.get_int("users", 2000));
  const std::size_t slots = static_cast<std::size_t>(args.get_int("slots", 20));
  serve::ServiceConfig config;
  config.k = get_positive(args, "k", 4, "serve-replay");
  config.radius = args.get_double("radius", 1.0);
  config.shard.max_shards = static_cast<std::size_t>(args.get_int("shards", 0));
  // --store-shards splits the InstanceStore itself by region (1 = the
  // golden-digest bit-identity mode; the solver --shards above is
  // independent of this).
  config.store_shards = get_positive(args, "store-shards", 1, "serve-replay");
  config.solver = get_solver_tier(args, "serve-replay");
  config.full_solve_churn_fraction = args.get_double("threshold", 0.05);
  config.max_batch = get_positive(args, "batch", 256, "serve-replay");
  const double churn = args.get_double("churn", 0.01);
  rnd::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 2011)));
  apply_index_flag(args);
  args.finish();
  if (users == 0 || churn < 0.0 || churn > 1.0) {
    throw ParseError("serve-replay: need --users > 0 and --churn in [0, 1]");
  }

  trace::SpanCollector::global().set_enabled(true);
  trace::SpanCollector::global().reset();

  const auto fresh_user = [&rng](std::uint64_t id) {
    serve::UserRecord rec;
    rec.id = id;
    rec.weight = static_cast<double>(rng.uniform_int(1, 5));
    rec.interest = {rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)};
    return rec;
  };

  serve::PlacementService service(config);
  std::vector<serve::UserRecord> population;
  population.reserve(users);
  for (std::uint64_t id = 0; id < users; ++id) {
    population.push_back(fresh_user(id));
  }
  std::uint64_t next_id = users;

  std::vector<std::future<serve::Response>> queries;
  queries.reserve(slots + 1);
  std::vector<std::future<serve::Response>> replies;
  replies.push_back(service.submit(serve::Request::add_users(population)));
  queries.push_back(service.submit(serve::Request::query_placement()));
  // No population means no one to churn: --users 0 must not pick victims.
  const std::size_t per_slot =
      population.empty()
          ? 0
          : std::max<std::size_t>(churn > 0.0 ? 1 : 0,
                                  static_cast<std::size_t>(churn * users));
  for (std::size_t slot = 0; slot < slots; ++slot) {
    std::vector<std::uint64_t> removed;
    std::vector<serve::UserRecord> added;
    std::unordered_set<std::size_t> victims;
    for (std::size_t c = 0; c < per_slot; ++c) {
      const auto victim = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(population.size()) - 1));
      // Re-picking a slot already churned this round would remove an id
      // whose add is still queued behind it, silently growing the
      // population. Keep each victim unique within the slot.
      if (!victims.insert(victim).second) continue;
      removed.push_back(population[victim].id);
      population[victim] = fresh_user(next_id++);
      added.push_back(population[victim]);
    }
    if (!removed.empty()) {
      replies.push_back(
          service.submit(serve::Request::remove_users(std::move(removed))));
      replies.push_back(
          service.submit(serve::Request::add_users(std::move(added))));
    }
    queries.push_back(service.submit(serve::Request::query_placement()));
    // Drain eagerly so the bounded queue never rejects the replay itself.
    while (service.queue_depth() > 0) (void)service.pump();
  }
  while (service.queue_depth() > 0) (void)service.pump();

  double last_objective = 0.0;
  std::size_t answered = 0;
  for (auto& q : queries) {
    const serve::Response r = q.get();
    if (r.status == serve::ResponseStatus::kOk) {
      last_objective = r.objective;
      ++answered;
    }
  }
  for (auto& r : replies) (void)r.get();

  const serve::MetricsSnapshot m = service.metrics();
  io::Table table({"metric", "value"});
  table.add_row({"population", std::to_string(service.population())});
  table.add_row({"store epoch", std::to_string(service.epoch())});
  table.add_row({"store shards", std::to_string(service.store_shards())});
  table.add_row({"placements answered", std::to_string(answered)});
  table.add_row({"last objective", io::fixed(last_objective, 4)});
  table.add_row({"batches", std::to_string(m.batches)});
  table.add_row({"mean batch size", io::fixed(m.mean_batch_size, 2)});
  table.add_row({"mutations applied", std::to_string(m.mutations)});
  table.add_row({"full solves", std::to_string(m.full_solves)});
  table.add_row({"incremental solves", std::to_string(m.incremental_solves)});
  table.add_row({"incremental ratio", io::percent(m.incremental_ratio())});
  table.add_row({"solve p50 (s)", io::fixed(m.solve_p50_seconds, 5)});
  table.add_row({"solve p99 (s)", io::fixed(m.solve_p99_seconds, 5)});
  table.add_row({"solve total (s)", io::fixed(m.total_solve_seconds, 3)});
  table.add_row({"index mode",
                 core::kernels::index_mode_name(core::kernels::index_mode())});
  table.add_row({"spatial queries", std::to_string(m.spatial_queries)});
  table.add_row({"spatial points touched",
                 std::to_string(m.spatial_points_touched)});
  table.add_row({"spatial incremental updates",
                 std::to_string(m.spatial_incremental_updates)});
  table.add_row({"spatial rebuilds", std::to_string(m.spatial_rebuilds)});
  if (config.solver == serve::SolverTier::kLs) {
    table.add_row({"ls moves", std::to_string(m.ls_moves)});
    table.add_row({"ls improvements", std::to_string(m.ls_improvements)});
    table.add_row({"ls evals", std::to_string(m.ls_evals)});
    table.add_row({"ls far evals", std::to_string(m.ls_far_evals)});
    table.add_row({"ls skipped", std::to_string(m.ls_skipped)});
    table.add_row({"ls gain sums", std::to_string(m.ls_gain_sums)});
  }
  table.print(std::cout);

  io::Table spans({"span", "count", "total (s)", "mean (s)", "max (s)"});
  for (const trace::SpanStats& s : trace::SpanCollector::global().stats()) {
    spans.add_row({s.name, std::to_string(s.count), io::fixed(s.total_seconds, 4),
                   io::fixed(s.mean_seconds(), 5), io::fixed(s.max_seconds, 5)});
  }
  spans.print(std::cout);
  trace::SpanCollector::global().set_enabled(false);
  return 0;
}

volatile std::sig_atomic_t g_stop_requested = 0;

void request_stop(int) { g_stop_requested = 1; }

/// Per-loop traffic breakdown printed after the aggregate table when the
/// server ran more than one event loop.
void print_loop_metrics(const net::NetServer& server) {
  // Keyed off the config, not loop_count(): the per-loop counters
  // outlive the loops themselves (this prints after stop()).
  const std::size_t loops = server.config().loops;
  if (loops <= 1) return;
  io::Table table({"loop", "accepted", "frames in", "frames out", "requests",
                   "ownership checks"});
  for (std::size_t i = 0; i < loops; ++i) {
    const net::NetLoopSnapshot s = server.loop_metrics(i);
    table.add_row({std::to_string(i), std::to_string(s.accepted),
                   std::to_string(s.frames_in), std::to_string(s.frames_out),
                   std::to_string(s.requests),
                   std::to_string(s.ownership_checks)});
  }
  table.print(std::cout);
}

void print_net_metrics(const net::NetMetricsSnapshot& m) {
  io::Table table({"net metric", "value"});
  table.add_row({"connections accepted", std::to_string(m.accepted)});
  table.add_row({"connections shed", std::to_string(m.rejected_overloaded)});
  table.add_row({"closed idle", std::to_string(m.closed_idle)});
  table.add_row({"closed on error", std::to_string(m.closed_error)});
  table.add_row({"bytes in", std::to_string(m.bytes_in)});
  table.add_row({"bytes out", std::to_string(m.bytes_out)});
  table.add_row({"frames in", std::to_string(m.frames_in)});
  table.add_row({"frames out", std::to_string(m.frames_out)});
  table.add_row({"frame errors", std::to_string(m.frame_errors)});
  table.add_row({"requests", std::to_string(m.requests)});
  table.add_row({"timeouts", std::to_string(m.timeouts)});
  table.add_row({"latency p50 (s)", io::fixed(m.latency_p50_seconds, 6)});
  table.add_row({"latency p99 (s)", io::fixed(m.latency_p99_seconds, 6)});
  table.print(std::cout);
}

/// Replays the serve-replay churn workload through a NetClient, so the
/// same request stream crosses the wire instead of the in-process queue.
int run_net_replay(net::NetClient& client, std::size_t users,
                   std::size_t slots, double churn, std::uint64_t seed) {
  rnd::Rng rng(seed);
  const auto fresh_user = [&rng](std::uint64_t id) {
    serve::UserRecord rec;
    rec.id = id;
    rec.weight = static_cast<double>(rng.uniform_int(1, 5));
    rec.interest = {rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)};
    return rec;
  };

  std::uint64_t ok = 0, timeout = 0, rejected = 0, bad = 0;
  const auto note = [&](const net::ResponseFrame& reply) {
    switch (reply.status) {
      case net::WireStatus::kOk: ++ok; break;
      case net::WireStatus::kTimeout: ++timeout; break;
      case net::WireStatus::kRejected: ++rejected; break;
      default: ++bad; break;
    }
    return reply;
  };

  std::vector<serve::UserRecord> population;
  population.reserve(users);
  for (std::uint64_t id = 0; id < users; ++id) {
    population.push_back(fresh_user(id));
  }
  std::uint64_t next_id = users;

  // Initial load in wire-sized chunks (one frame may carry at most
  // kMaxBatchCount users; stay far below it to keep frames small).
  constexpr std::size_t kChunk = 512;
  for (std::size_t at = 0; at < population.size(); at += kChunk) {
    const std::size_t end = std::min(population.size(), at + kChunk);
    (void)note(client.add_users({population.begin() +
                                     static_cast<std::ptrdiff_t>(at),
                                 population.begin() +
                                     static_cast<std::ptrdiff_t>(end)}));
  }

  net::ResponseFrame last_query = note(client.query_placement());
  // No population means no one to churn: --users 0 must not pick victims.
  const std::size_t per_slot =
      population.empty()
          ? 0
          : std::max<std::size_t>(churn > 0.0 ? 1 : 0,
                                  static_cast<std::size_t>(churn * users));
  for (std::size_t slot = 0; slot < slots; ++slot) {
    std::vector<std::uint64_t> removed;
    std::vector<serve::UserRecord> added;
    std::unordered_set<std::size_t> victims;
    for (std::size_t c = 0; c < per_slot; ++c) {
      const auto victim = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(population.size()) - 1));
      if (!victims.insert(victim).second) continue;
      removed.push_back(population[victim].id);
      population[victim] = fresh_user(next_id++);
      added.push_back(population[victim]);
    }
    if (!removed.empty()) {
      (void)note(client.remove_users(std::move(removed)));
      (void)note(client.add_users(std::move(added)));
    }
    last_query = note(client.query_placement());
  }

  io::Table table({"metric", "value"});
  table.add_row({"requests ok", std::to_string(ok)});
  table.add_row({"requests timed out", std::to_string(timeout)});
  table.add_row({"requests rejected", std::to_string(rejected)});
  table.add_row({"requests failed", std::to_string(bad)});
  table.add_row({"client reconnects", std::to_string(client.reconnects())});
  table.add_row({"last epoch", std::to_string(last_query.epoch)});
  table.add_row({"last objective", io::fixed(last_query.objective, 4)});
  table.add_row({"last centers",
                 std::to_string(last_query.centers ? last_query.centers->size()
                                                   : 0)});
  table.print(std::cout);
  return bad == 0 ? 0 : 1;
}

/// Issues a kStats request and prints the exposition verbatim; shared by
/// `stats` and the `serve-net --stats` paths. Returns a process exit code.
int scrape_and_print_stats(net::NetClient& client) {
  const net::ResponseFrame reply = client.stats();
  if (reply.status != net::WireStatus::kOk || !reply.stats.has_value()) {
    std::cerr << "stats scrape failed: " << net::to_string(reply.status)
              << "\n";
    return 1;
  }
  std::cout << *reply.stats;
  return 0;
}

// Remote metrics scrape: one kStats round-trip against a running
// `serve-net --listen`, exposition printed to stdout for grep/Prometheus.
int cmd_stats(io::Args& args) {
  const std::string host = args.get_string("host", "127.0.0.1");
  const auto port = static_cast<std::uint16_t>(args.get_int("port", 0));
  args.finish();
  if (port == 0) throw ParseError("stats: --port is required");
  net::NetClientConfig config;
  config.host = host;
  config.port = port;
  net::NetClient client(config);
  return scrape_and_print_stats(client);
}

std::string hex_digest(std::uint64_t digest) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

/// Whole-file read through the WAL syscall seam, so wal-dump examines the
/// exact bytes recovery would. nullopt when the file cannot be opened.
std::optional<std::vector<std::uint8_t>> read_wal_file(
    wal::FileOps& ops, const std::string& path) {
  const int fd = ops.open(path, wal::OpenMode::kRead);
  if (fd < 0) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[1u << 16];
  for (;;) {
    const ssize_t got = ops.read(fd, chunk, sizeof chunk);
    if (got < 0) {
      (void)ops.close(fd);
      return std::nullopt;
    }
    if (got == 0) break;
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  (void)ops.close(fd);
  return bytes;
}

void print_recovery_result(const wal::RecoveryResult& rr) {
  io::Table table({"recovery", "value"});
  table.add_row({"snapshot epoch", std::to_string(rr.snapshot_epoch)});
  table.add_row({"snapshots discarded", std::to_string(rr.snapshots_discarded)});
  table.add_row({"segments scanned", std::to_string(rr.segments_scanned)});
  table.add_row({"records applied", std::to_string(rr.records_applied)});
  table.add_row({"records skipped", std::to_string(rr.records_skipped)});
  table.add_row({"torn bytes dropped", std::to_string(rr.torn_bytes_dropped)});
  table.add_row({"clean", rr.clean ? "yes" : "no"});
  if (!rr.detail.empty()) table.add_row({"detail", rr.detail});
  table.add_row({"store epoch", std::to_string(rr.store.epoch)});
  table.add_row({"store rows", std::to_string(rr.store.size())});
  table.add_row({"store digest", hex_digest(wal::snapshot_digest(rr.store))});
  table.print(std::cout);
}

// Offline inspection of a WAL directory: every checkpoint, every log
// record, then the digest recovery would reconstruct. Two directories
// holding the same store state print the same final digest line, which
// is how the tutorial compares a primary against a promoted replica.
int cmd_wal_dump(io::Args& args) {
  const std::string dir = args.get_string("dir", "");
  args.finish();
  if (dir.empty()) throw ParseError("wal-dump: --dir is required");

  wal::FileOps& ops = wal::FileOps::system();
  const auto names = ops.list(dir);
  if (!names.has_value()) {
    throw ParseError("wal-dump: cannot read directory " + dir);
  }

  // parse_file_epoch ignores foreign files; sorted names + zero-padded
  // epochs mean this walk is already in ascending epoch order.
  bool corrupt = false;
  std::uint64_t total_records = 0, total_bytes = 0;
  for (const std::string& name : *names) {
    const std::string path = dir + "/" + name;
    if (wal::parse_file_epoch(name, "snap-", ".mmps").has_value()) {
      const auto bytes = read_wal_file(ops, path);
      wal::WalSnapshot snap;
      const auto status =
          bytes.has_value()
              ? wal::decode_snapshot(bytes->data(), bytes->size(), snap)
              : wal::RecordDecodeStatus::kNeedMoreData;
      if (status == wal::RecordDecodeStatus::kOk) {
        std::cout << name << "  checkpoint epoch " << snap.epoch << "  rows "
                  << snap.size() << "  digest "
                  << hex_digest(wal::snapshot_digest(snap)) << "\n";
      } else {
        std::cout << name << "  checkpoint CORRUPT (" << to_string(status)
                  << ")\n";
        corrupt = true;
      }
      continue;
    }
    if (!wal::parse_file_epoch(name, "wal-", ".mmpl").has_value()) continue;
    const auto bytes = read_wal_file(ops, path);
    if (!bytes.has_value()) {
      std::cout << name << "  segment UNREADABLE\n";
      corrupt = true;
      continue;
    }
    std::cout << name << "  segment, " << bytes->size() << " bytes\n";
    total_bytes += bytes->size();
    std::size_t at = 0;
    while (at < bytes->size()) {
      const auto decoded =
          wal::decode_record(bytes->data() + at, bytes->size() - at);
      if (decoded.status != wal::RecordDecodeStatus::kOk) {
        // A short read at end-of-file is the torn tail recovery drops;
        // anything else is real corruption.
        const bool torn =
            decoded.status == wal::RecordDecodeStatus::kNeedMoreData;
        std::cout << "  +" << at << "  " << (torn ? "torn tail" : "CORRUPT")
                  << " (" << to_string(decoded.status) << ", "
                  << (bytes->size() - at) << " bytes)\n";
        corrupt = corrupt || !torn;
        break;
      }
      const wal::WalRecord& rec = decoded.record;
      std::cout << "  lsn " << rec.lsn << "  "
                << (rec.type == wal::RecordType::kUpsert ? "upsert" : "remove")
                << " x" << rec.count() << "  -> epoch " << rec.epoch << "\n";
      ++total_records;
      at += decoded.consumed;
    }
  }
  std::cout << "total: " << total_records << " records, " << total_bytes
            << " segment bytes\n";

  const wal::RecoveryResult rr = wal::recover(dir, 0, ops);
  std::cout << "recovered: epoch " << rr.store.epoch << "  rows "
            << rr.store.size() << "  digest "
            << hex_digest(wal::snapshot_digest(rr.store))
            << (rr.clean ? "" : "  (NOT CLEAN: " + rr.detail + ")") << "\n";
  return corrupt || !rr.clean ? 1 : 0;
}

// Dry-run recovery: what a restarting server would reconstruct from
// --dir, without writing anything. Exit 1 when replay stopped at
// corruption (the store is then a consistent but possibly stale state).
// --shards N replays each shard directory independently, exactly like a
// serve-net --listen --store-shards N startup, and prints the per-shard
// table plus the re-derived global view; it also reports whether the
// directory existed at all (an empty-but-existing --wal-dir is a clean
// empty log; a missing one is a fresh deployment).
int cmd_wal_recover(io::Args& args) {
  const std::string dir = args.get_string("dir", "");
  const auto dim = static_cast<std::uint16_t>(args.get_int("dim", 0));
  const auto shards = static_cast<std::size_t>(args.get_int("shards", 1));
  args.finish();
  if (dir.empty()) throw ParseError("wal-recover: --dir is required");
  if (shards < 1) throw ParseError("wal-recover: --shards must be >= 1");
  if (shards == 1) {
    const wal::RecoveryResult rr = wal::recover(dir, dim);
    print_recovery_result(rr);
    std::cout << "dir: " << (rr.dir_found ? "found" : "missing") << "\n";
    return rr.clean ? 0 : 1;
  }
  const wal::ShardedRecovery rr = wal::recover_sharded(dir, shards, dim);
  io::Table table({"shard", "epoch", "rows", "clean", "dir", "digest"});
  for (std::size_t s = 0; s < rr.shards.size(); ++s) {
    const wal::RecoveryResult& part = rr.shards[s];
    table.add_row({std::to_string(s), std::to_string(part.store.epoch),
                   std::to_string(part.store.size()),
                   part.clean ? "yes" : "no",
                   part.dir_found ? "found" : "missing",
                   hex_digest(wal::snapshot_digest(part.store))});
  }
  table.print(std::cout);
  std::cout << "global: epoch " << rr.global_epoch << "  rows " << rr.rows
            << "  dir " << (rr.dir_found ? "found" : "missing")
            << (rr.clean ? "" : "  (NOT CLEAN)") << "\n";
  for (std::size_t s = 0; s < rr.shards.size(); ++s) {
    if (!rr.shards[s].clean) {
      std::cout << "shard " << s << " detail: " << rr.shards[s].detail
                << "\n";
    }
  }
  return rr.clean ? 0 : 1;
}

// Socket-serving mode of the placement service. Three sub-modes:
//   --listen         run a NetServer until SIGINT/SIGTERM or --run-seconds;
//   --connect HOST   replay the churn workload against a remote server;
//   (neither)        self-test: in-process server + client over loopback.
// --listen composes with --wal-dir (durable primary) and/or --primary
// (streaming replica of another listener). --loops N shards the front
// end across N epoll event loops (1 = the deterministic single-loop
// schedule); a multi-loop run prints a per-loop traffic table on exit.
int cmd_serve_net(io::Args& args) {
  const bool listen = args.get_flag("listen");
  const std::string connect_host = args.get_string("connect", "");
  const auto port = static_cast<std::uint16_t>(args.get_int("port", 0));
  const std::string port_file = args.get_string("port-file", "");
  const double run_seconds = args.get_double("run-seconds", 0.0);
  const std::size_t loops = get_positive(args, "loops", 1, "serve-net");
  const std::size_t users = static_cast<std::size_t>(args.get_int("users", 500));
  const std::size_t slots = static_cast<std::size_t>(args.get_int("slots", 10));
  const double churn = args.get_double("churn", 0.01);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 2011));
  const bool want_stats = args.get_flag("stats");
  const std::string wal_dir = args.get_string("wal-dir", "");
  const std::string fsync_text = args.get_string("fsync", "group");
  const auto snapshot_every =
      static_cast<std::uint64_t>(args.get_int("snapshot-every", 4096));
  const std::string primary_host = args.get_string("primary", "");
  const auto primary_port =
      static_cast<std::uint16_t>(args.get_int("primary-port", 0));
  serve::ServiceConfig service_config;
  service_config.k = get_positive(args, "k", 4, "serve-net");
  service_config.radius = args.get_double("radius", 1.0);
  service_config.store_shards =
      get_positive(args, "store-shards", 1, "serve-net");
  service_config.solver = get_solver_tier(args, "serve-net");
  apply_index_flag(args);
  args.finish();
  if (listen && !connect_host.empty()) {
    throw ParseError("serve-net: --listen and --connect are exclusive");
  }
  if (listen && want_stats) {
    throw ParseError("serve-net: --stats applies to --connect or self-test");
  }
  if (churn < 0.0 || churn > 1.0) {
    throw ParseError("serve-net: --churn must be in [0, 1]");
  }
  if (!listen && (!wal_dir.empty() || !primary_host.empty())) {
    throw ParseError("serve-net: --wal-dir and --primary require --listen");
  }
  if (!primary_host.empty() && primary_port == 0) {
    throw ParseError("serve-net: --primary needs --primary-port");
  }
  if (!listen && loops != 1) {
    throw ParseError("serve-net: --loops requires --listen");
  }
  if (service_config.store_shards > 1 && !primary_host.empty()) {
    // Replication installs one global snapshot/epoch, which cannot be
    // split back into per-shard chains.
    throw ParseError("serve-net: --primary requires --store-shards 1");
  }

  if (listen) {
    // Durability bootstrap, one path at every --store-shards: recover
    // whatever a previous process left in --wal-dir (each shard directory
    // independently; one shard is the root layout), continue every log
    // from its recovered epoch/lsn, and seed the service with the
    // recovered store before the socket opens.
    std::optional<wal::ShardedWal> shard_wal;
    wal::ShardedRecovery recovered;
    if (!wal_dir.empty()) {
      const auto policy = wal::fsync_policy_from_string(fsync_text);
      if (!policy.has_value()) {
        throw ParseError("serve-net: --fsync must be always|group|never");
      }
      recovered = wal::recover_sharded(
          wal_dir, service_config.store_shards,
          static_cast<std::uint16_t>(service_config.dim));
      for (std::size_t s = 0; s < recovered.shards.size(); ++s) {
        const wal::RecoveryResult& part = recovered.shards[s];
        if (part.clean) continue;
        std::cerr << "warning: ";
        if (recovered.shards.size() > 1) std::cerr << "shard " << s << " ";
        std::cerr << "recovery stopped early: " << part.detail << "\n";
      }
      wal::WalConfig wal_config;
      wal_config.dir = wal_dir;
      wal_config.fsync = *policy;
      wal_config.snapshot_every_ops = snapshot_every;
      shard_wal.emplace(wal_config, service_config.store_shards, recovered);
      service_config.shard_wal = &*shard_wal;
    }
    net::NetServerConfig net_config;
    net_config.port = port;
    net_config.loops = loops;
    net::NetServer server(service_config, net_config);
    if (shard_wal.has_value()) {
      if (recovered.global_epoch > 0) {
        server.service().restore_sharded(recovered);
      }
      if (recovered.shards.size() == 1) {
        const wal::RecoveryResult& root = recovered.shards.front();
        std::cout << "wal: recovered epoch " << root.store.epoch << " ("
                  << root.store.size() << " rows, " << root.records_applied
                  << " records replayed, digest "
                  << hex_digest(wal::snapshot_digest(root.store)) << ")";
      } else {
        std::cout << "wal: recovered " << recovered.shards.size()
                  << " shards, global epoch " << recovered.global_epoch
                  << " (" << recovered.rows << " rows, dir "
                  << (recovered.dir_found ? "found" : "missing") << ")";
      }
      std::cout << ", fsync=" << fsync_text << std::endl;
    }
    server.start();
    // A replica subscribes after the server is up so a promoted-to-primary
    // operator can point clients at this port the whole time.
    std::optional<net::ReplicaAgent> replica;
    if (!primary_host.empty()) {
      net::ReplicaAgentConfig replica_config;
      replica_config.host = primary_host;
      replica_config.port = primary_port;
      replica.emplace(server.service(), replica_config);
      replica->start();
      std::cout << "replicating from " << primary_host << ":" << primary_port
                << " (read-only until promoted)" << std::endl;
    }
    if (!port_file.empty()) {
      std::ofstream out(port_file);
      out << server.port() << "\n";
      if (!out) throw ParseError("serve-net: cannot write " + port_file);
    }
    std::cout << "listening on 127.0.0.1:" << server.port() << " ("
              << server.loop_count() << " loop"
              << (server.loop_count() == 1 ? "" : "s") << ", accept="
              << (server.loop_count() == 1 ? "single" : "reuseport") << ")"
              << std::endl;
    std::signal(SIGINT, request_stop);
    std::signal(SIGTERM, request_stop);
    using Clock = std::chrono::steady_clock;
    const auto deadline =
        run_seconds > 0.0
            ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(run_seconds))
            : Clock::time_point::max();
    while (g_stop_requested == 0 && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    if (replica.has_value()) {
      replica->stop();
      io::Table table({"replication", "value"});
      table.add_row({"primary epoch", std::to_string(replica->primary_epoch())});
      table.add_row({"local epoch",
                     std::to_string(server.service().epoch())});
      table.add_row({"lag (ops)", std::to_string(replica->lag_ops())});
      table.add_row({"records applied",
                     std::to_string(replica->records_applied())});
      table.add_row({"snapshots installed",
                     std::to_string(replica->snapshots_installed())});
      table.add_row({"resyncs", std::to_string(replica->resyncs())});
      table.print(std::cout);
    }
    server.stop();
    print_net_metrics(server.metrics());
    print_loop_metrics(server);
    return 0;
  }

  std::optional<net::NetServer> local;
  net::NetClientConfig client_config;
  if (connect_host.empty()) {
    local.emplace(service_config, net::NetServerConfig{});
    local->start();
    client_config.port = local->port();
  } else {
    if (port == 0) throw ParseError("serve-net: --connect needs --port");
    client_config.host = connect_host;
    client_config.port = port;
  }
  net::NetClient client(client_config);
  int rc = run_net_replay(client, users, slots, churn, seed);
  if (want_stats && rc == 0) {
    // Scrape over the same connection, before any local server stops, so
    // the exposition reflects the replay that just finished.
    rc = scrape_and_print_stats(client);
  }
  if (local.has_value()) {
    local->stop();
    print_net_metrics(local->metrics());
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    io::Args args(argc - 1, argv + 1);
    if (command == "generate") return cmd_generate(args);
    if (command == "solve") return cmd_solve(args);
    if (command == "evaluate") return cmd_evaluate(args);
    if (command == "describe") return cmd_describe(args);
    if (command == "compare") return cmd_compare(args);
    if (command == "certify") return cmd_certify(args);
    if (command == "simulate") return cmd_simulate(args);
    if (command == "serve-replay") return cmd_serve_replay(args);
    if (command == "serve-net") return cmd_serve_net(args);
    if (command == "stats") return cmd_stats(args);
    if (command == "wal-dump") return cmd_wal_dump(args);
    if (command == "wal-recover") return cmd_wal_recover(args);
    std::cerr << "unknown command '" << command << "'\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "mmph_cli " << command << ": " << e.what() << "\n";
    return 1;
  }
}
