// Socket-layer throughput of the multi-loop epoll front end: an
// in-process NetServer on loopback hammered by N client threads using
// the bounded-pipelining NetClient API (window W frames in flight),
// plus a churn thread so every run also crosses the mutation path.
//
// Two parts:
//   1. A sweep over --sweep-loops x --sweep-store-shards x
//      --sweep-clients (default {1,2,4,8} x {1,4} x {1,4}) on a small
//      warm instance — the scaling story of the per-loop refactor
//      crossed with the region-sharded store.
//   2. A large-instance scenario (--big-users, default 1,000,000) with
//      sustained churn at --big-loops, showing the front end holding a
//      production-sized population (seed + full-solve warm-up timed
//      separately from the steady-state query phase).
//
// Emits BENCH_net.json: box specs, the sweep table, the big scenario,
// per-loop throughput breakdown, and server-side metrics. The process
// exits non-zero if any request failed or a kStats scrape broke, so CI
// can gate on `requests_failed: 0`.
//
//   ./perf_net --seconds 2 --pipeline 32 --big-users 1000000 --out BENCH_net.json

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "box.hpp"
#include "mmph/io/args.hpp"
#include "mmph/io/stats.hpp"
#include "mmph/net/client.hpp"
#include "mmph/net/server.hpp"
#include "mmph/random/rng.hpp"

namespace {

using namespace mmph;
using Clock = std::chrono::steady_clock;

serve::UserRecord fresh_user(std::uint64_t id, rnd::Rng& rng) {
  serve::UserRecord rec;
  rec.id = id;
  rec.weight = static_cast<double>(rng.uniform_int(1, 5));
  rec.interest = {rng.uniform(0.0, 4.0), rng.uniform(0.0, 4.0)};
  return rec;
}

struct WorkerResult {
  std::uint64_t ok = 0;
  std::uint64_t bad = 0;
  std::vector<double> latency_seconds;
};

struct Scenario {
  std::size_t loops = 1;
  std::size_t clients = 4;
  std::size_t users = 200;
  std::size_t k = 4;
  std::size_t store_shards = 1;
  std::size_t window = 32;
  double seconds = 2.0;
  std::chrono::milliseconds churn_period{50};
  std::chrono::milliseconds request_deadline{15000};
  std::chrono::milliseconds recv_timeout{30000};
};

struct RunResult {
  Scenario scenario;
  double elapsed = 0.0;
  double rps = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  std::uint64_t ok = 0;
  std::uint64_t bad = 0;
  std::uint64_t mutations = 0;
  double seed_seconds = 0.0;
  double warm_solve_seconds = 0.0;
  bool stats_scrape_ok = false;
  const char* accept = "?";
  net::NetMetricsSnapshot server;
  std::vector<net::NetLoopSnapshot> per_loop;
};

/// Pipelined query worker: keeps `window` query_placement frames in
/// flight, draining the oldest reply before sending the next, and
/// drains the tail after stop so every sent request is accounted for.
void query_worker(const net::NetClientConfig& client_config,
                  std::size_t window, const std::atomic<bool>& stop,
                  WorkerResult& r) {
  try {
    net::NetClient client(client_config);
    std::deque<Clock::time_point> sent;
    const auto pump_one = [&] {
      const net::ResponseFrame reply = client.drain_one();
      const double rtt =
          std::chrono::duration<double>(Clock::now() - sent.front()).count();
      sent.pop_front();
      if (reply.status == net::WireStatus::kOk) {
        ++r.ok;
        r.latency_seconds.push_back(rtt);
      } else {
        ++r.bad;
      }
    };
    while (!stop.load(std::memory_order_relaxed)) {
      while (client.inflight() < window &&
             !stop.load(std::memory_order_relaxed)) {
        sent.push_back(Clock::now());
        (void)client.pipeline_query_placement();
      }
      if (client.inflight() > 0) pump_one();
    }
    while (client.inflight() > 0) pump_one();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_net: worker error: %s\n", e.what());
    ++r.bad;
  }
}

/// One full scenario: start a server at `loops`, seed the population,
/// warm the placement, run pipelined query workers + a churn thread
/// for `seconds`, scrape kStats, and snapshot per-loop counters.
RunResult run_scenario(const Scenario& sc) {
  RunResult out;
  out.scenario = sc;

  serve::ServiceConfig service_config;
  service_config.k = sc.k;
  service_config.store_shards = sc.store_shards;
  service_config.queue_capacity =
      std::max<std::size_t>(1024, sc.clients * sc.window * 4 + 64);
  net::NetServerConfig net_config;
  net_config.loops = sc.loops;
  net_config.max_connections = sc.clients + 4;
  net_config.poll_interval = std::chrono::milliseconds(1);
  net_config.request_deadline = sc.request_deadline;
  net::NetServer server(service_config, net_config);
  server.start();
  out.accept = server.loop_count() == 1 ? "single" : "reuseport";

  net::NetClientConfig client_config;
  client_config.port = server.port();
  client_config.recv_timeout = sc.recv_timeout;
  client_config.pipeline_window = sc.window;

  // Seed the population (chunked so a million-user instance does not
  // need a single giant frame) and warm the placement so the measured
  // loop hits the cached-view path. The first query pays the full
  // solve; at --big-users that dominates, so it is timed separately.
  {
    rnd::Rng rng(7);
    net::NetClient seeder(client_config);
    const auto seed_start = Clock::now();
    constexpr std::size_t kChunk = 20000;
    std::vector<serve::UserRecord> chunk;
    for (std::uint64_t id = 0; id < sc.users;) {
      chunk.clear();
      for (std::size_t i = 0; i < kChunk && id < sc.users; ++i) {
        chunk.push_back(fresh_user(id++, rng));
      }
      if (seeder.add_users(chunk).status != net::WireStatus::kOk) {
        std::fprintf(stderr, "perf_net: seeding failed\n");
        out.bad = 1;
        server.stop();
        return out;
      }
    }
    out.seed_seconds =
        std::chrono::duration<double>(Clock::now() - seed_start).count();
    const auto warm_start = Clock::now();
    if (seeder.query_placement().status != net::WireStatus::kOk) {
      std::fprintf(stderr, "perf_net: warm-up solve failed\n");
      out.bad = 1;
      server.stop();
      return out;
    }
    out.warm_solve_seconds =
        std::chrono::duration<double>(Clock::now() - warm_start).count();
  }

  std::atomic<bool> stop{false};
  std::vector<WorkerResult> results(sc.clients);
  std::vector<std::thread> workers;
  workers.reserve(sc.clients);
  const auto bench_start = Clock::now();
  for (std::size_t w = 0; w < sc.clients; ++w) {
    workers.emplace_back([&, w] {
      query_worker(client_config, sc.window, stop, results[w]);
    });
  }
  // Churn thread: replace one user per period so the measured queries
  // race real epochs and incremental re-solves.
  std::atomic<std::uint64_t> mutations{0};
  std::thread churner([&] {
    try {
      rnd::Rng rng(11);
      net::NetClient client(client_config);
      std::uint64_t next_id = sc.users;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t victim = next_id - sc.users;
        (void)client.remove_users({victim});
        (void)client.add_users({fresh_user(next_id++, rng)});
        mutations.fetch_add(2, std::memory_order_relaxed);
        std::this_thread::sleep_for(sc.churn_period);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perf_net: churner error: %s\n", e.what());
    }
  });

  std::this_thread::sleep_for(std::chrono::duration<double>(sc.seconds));
  stop.store(true);
  for (std::thread& t : workers) t.join();
  churner.join();
  out.elapsed =
      std::chrono::duration<double>(Clock::now() - bench_start).count();
  out.mutations = mutations.load();

  // Exercise the operator scrape path while the server is still up,
  // checking that the per-loop labeled series made it into the text.
  {
    net::NetClient scraper(client_config);
    const net::ResponseFrame reply = scraper.stats();
    out.stats_scrape_ok =
        reply.status == net::WireStatus::kOk && reply.stats.has_value() &&
        reply.stats->find("mmph_net_requests_total") != std::string::npos &&
        reply.stats->find("mmph_net_loop_requests_total{loop=\"0\"}") !=
            std::string::npos;
    if (!out.stats_scrape_ok) {
      std::fprintf(stderr, "perf_net: kStats scrape failed (%s)\n",
                   net::to_string(reply.status));
    }
  }
  server.stop();

  std::vector<double> latency;
  for (const WorkerResult& r : results) {
    out.ok += r.ok;
    out.bad += r.bad;
    latency.insert(latency.end(), r.latency_seconds.begin(),
                   r.latency_seconds.end());
  }
  out.rps = static_cast<double>(out.ok) / out.elapsed;
  out.p50 = io::percentile(latency, 0.50);
  out.p99 = io::percentile_inplace(latency, 0.99);
  out.server = server.metrics();
  for (std::size_t i = 0; i < sc.loops; ++i) {
    out.per_loop.push_back(server.loop_metrics(i));
  }
  return out;
}

void print_result(const char* tag, const RunResult& r) {
  std::printf(
      "%s loops=%zu shards=%zu clients=%zu users=%zu window=%zu accept=%s: "
      "%llu ok, %llu failed in %.2fs -> %.0f req/s "
      "(p50 %.1f us, p99 %.1f us, %llu churn ops)\n",
      tag, r.scenario.loops, r.scenario.store_shards, r.scenario.clients,
      r.scenario.users, r.scenario.window, r.accept,
      static_cast<unsigned long long>(r.ok),
      static_cast<unsigned long long>(r.bad), r.elapsed, r.rps, r.p50 * 1e6,
      r.p99 * 1e6, static_cast<unsigned long long>(r.mutations));
}

void emit_run(std::ostream& out, const RunResult& r, const char* indent) {
  out << indent << "{\"loops\": " << r.scenario.loops
      << ", \"store_shards\": " << r.scenario.store_shards
      << ", \"clients\": " << r.scenario.clients
      << ", \"users\": " << r.scenario.users
      << ", \"pipeline_window\": " << r.scenario.window << ", \"accept\": \""
      << r.accept << "\",\n"
      << indent << " \"seconds\": " << r.elapsed
      << ", \"throughput_req_per_sec\": " << r.rps
      << ", \"requests_ok\": " << r.ok << ", \"requests_failed\": " << r.bad
      << ", \"churn_mutations\": " << r.mutations << ",\n"
      << indent << " \"latency_p50_seconds\": " << r.p50
      << ", \"latency_p99_seconds\": " << r.p99
      << ", \"seed_seconds\": " << r.seed_seconds
      << ", \"warm_solve_seconds\": " << r.warm_solve_seconds
      << ", \"stats_scrape_ok\": " << (r.stats_scrape_ok ? "true" : "false")
      << ",\n"
      << indent << " \"server\": {\"accepted\": " << r.server.accepted
      << ", \"bytes_in\": " << r.server.bytes_in
      << ", \"bytes_out\": " << r.server.bytes_out
      << ", \"frames_in\": " << r.server.frames_in
      << ", \"frames_out\": " << r.server.frames_out
      << ", \"frame_errors\": " << r.server.frame_errors
      << ", \"timeouts\": " << r.server.timeouts
      << ", \"ownership_checks\": " << r.server.ownership_checks
      << ", \"latency_p50_seconds\": " << r.server.latency_p50_seconds
      << ", \"latency_p99_seconds\": " << r.server.latency_p99_seconds
      << "},\n"
      << indent << " \"per_loop\": [";
  for (std::size_t i = 0; i < r.per_loop.size(); ++i) {
    const net::NetLoopSnapshot& l = r.per_loop[i];
    if (i != 0) out << ", ";
    out << "{\"loop\": " << i << ", \"accepted\": " << l.accepted
        << ", \"frames_in\": " << l.frames_in
        << ", \"frames_out\": " << l.frames_out
        << ", \"requests\": " << l.requests
        << ", \"ownership_checks\": " << l.ownership_checks << "}";
  }
  out << "]}";
}

std::vector<std::size_t> parse_list(const std::string& text) {
  std::vector<std::size_t> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      out.push_back(static_cast<std::size_t>(std::stoull(item)));
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  io::Args args(argc, argv);
  const std::vector<std::size_t> sweep_loops =
      parse_list(args.get_string("sweep-loops", "1,2,4,8"));
  const std::vector<std::size_t> sweep_clients =
      parse_list(args.get_string("sweep-clients", "1,4"));
  const std::vector<std::size_t> sweep_shards =
      parse_list(args.get_string("sweep-store-shards", "1,4"));
  const double seconds = args.get_double("seconds", 2.0);
  const std::size_t users = static_cast<std::size_t>(args.get_int("users", 200));
  const std::size_t k = static_cast<std::size_t>(args.get_int("k", 4));
  const std::size_t window =
      static_cast<std::size_t>(args.get_int("pipeline", 32));
  const std::size_t big_users =
      static_cast<std::size_t>(args.get_int("big-users", 1000000));
  const std::size_t big_loops =
      static_cast<std::size_t>(args.get_int("big-loops", 4));
  const std::size_t big_clients =
      static_cast<std::size_t>(args.get_int("big-clients", 2));
  // The big run defaults to one store shard: above one shard every
  // mutation dirties the carried grid, so each warm solve at --big-users
  // rebuilds it — sweep shards on the small instance, keep the large
  // instance comparable across bench history. --big-store-shards opts in.
  const std::size_t big_shards =
      static_cast<std::size_t>(args.get_int("big-store-shards", 1));
  const double big_seconds = args.get_double("big-seconds", 10.0);
  const double big_churn_ms = args.get_double("big-churn-ms", 3000.0);
  const std::string out_path = args.get_string("out", "BENCH_net.json");
  args.finish();

  const unsigned cpus = std::thread::hardware_concurrency();
  std::printf("perf_net: box has %u cpu(s), model %s\n", cpus,
              bench::cpu_model().c_str());

  std::vector<RunResult> sweep;
  for (const std::size_t loops : sweep_loops) {
    for (const std::size_t shards : sweep_shards) {
      for (const std::size_t clients : sweep_clients) {
        Scenario sc;
        sc.loops = loops;
        sc.clients = clients;
        sc.users = users;
        sc.k = k;
        sc.store_shards = shards;
        sc.window = window;
        sc.seconds = seconds;
        sweep.push_back(run_scenario(sc));
        print_result("sweep", sweep.back());
      }
    }
  }

  // Large-instance scenario: a production-sized population under slow
  // sustained churn. Each mutation forces an incremental re-solve on
  // the next query batch, so deadlines are sized for solver latency at
  // this n, not for the warm cached path.
  std::vector<RunResult> big;
  if (big_users > 0) {
    Scenario sc;
    sc.loops = big_loops;
    sc.clients = big_clients;
    sc.users = big_users;
    sc.k = k;
    sc.store_shards = big_shards;
    sc.window = window;
    sc.seconds = big_seconds;
    sc.churn_period =
        std::chrono::milliseconds(static_cast<long>(big_churn_ms));
    sc.request_deadline = std::chrono::milliseconds(120000);
    sc.recv_timeout = std::chrono::milliseconds(300000);
    std::printf("big: seeding %zu users (full solve follows, slow at "
                "this n)...\n", big_users);
    big.push_back(run_scenario(sc));
    print_result("big", big.back());
    std::printf("big: seed %.1fs, first full solve %.1fs\n",
                big.back().seed_seconds, big.back().warm_solve_seconds);
  }

  std::uint64_t failed = 0;
  bool scrape_ok = true;
  double best_rps = 0.0;
  for (const RunResult& r : sweep) {
    failed += r.bad;
    scrape_ok = scrape_ok && r.stats_scrape_ok;
    best_rps = std::max(best_rps, r.rps);
  }
  for (const RunResult& r : big) {
    failed += r.bad;
    scrape_ok = scrape_ok && r.stats_scrape_ok;
  }

  std::ofstream out(out_path);
  out << "{\n  \"bench\": \"net\",\n"
      << "  \"scenario\": \"loopback query_placement (pipelined) with "
         "background churn; loops x store-shards x clients sweep + "
         "large-instance churn run\",\n"
      << "  \"box\": " << bench::box_json() << ",\n"
      << "  \"config\": {\"sweep_users\": " << users << ", \"k\": " << k
      << ", \"pipeline_window\": " << window
      << ", \"seconds_per_run\": " << seconds << "},\n"
      << "  \"best_throughput_req_per_sec\": " << best_rps << ",\n"
      << "  \"requests_failed\": " << failed << ",\n"
      << "  \"stats_scrape_ok\": " << (scrape_ok ? "true" : "false") << ",\n"
      << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    emit_run(out, sweep[i], "    ");
    if (i + 1 != sweep.size()) out << ",";
    out << "\n";
  }
  out << "  ],\n  \"million_user_churn\": ";
  if (big.empty()) {
    out << "null\n";
  } else {
    emit_run(out, big.front(), "    ");
    out << "\n";
  }
  out << "}\n";
  std::printf("wrote %s\n", out_path.c_str());
  return (failed == 0 && scrape_ok) ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "perf_net: %s\n", e.what());
  return 1;
}
