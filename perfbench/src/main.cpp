// mmph_perfbench: the repository benchmark. One process starts an
// in-process net::NetServer (1 event loop, its own 2-worker thread pool,
// store_shards = 1, index mode auto), bulk-loads a seeded population over
// loopback, then drives one workload from a single generator thread and
// checks every reply. See perfbench/README.md for the workloads, the
// metric definitions and what is deliberately left unmeasured.
//
//   mmph_perfbench --workload churn-warm --seed 1 --seconds 30 --trace 0
//
// Prints a human-readable report, then one `record {...}` line with the
// run record (box, config, sample counts, checks), then the result JSON
// as the last line. Exits 1 when any output check fails.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "loadgen.hpp"
#include "mmph/core/lazy_greedy.hpp"
#include "mmph/core/objective.hpp"
#include "mmph/core/problem.hpp"
#include "mmph/net/server.hpp"
#include "mmph/parallel/thread_pool.hpp"
#include "mmph/random/rng.hpp"
#include "mmph/serve/placement_service.hpp"
#include "mmph/trace/span.hpp"
#include "mmph/wal/recovery.hpp"
#include "mmph/wal/writer.hpp"
#include "probes.hpp"

namespace perfbench {
namespace {

namespace core = mmph::core;
namespace geo = mmph::geo;
namespace net = mmph::net;
namespace serve = mmph::serve;
namespace wal = mmph::wal;

constexpr std::size_t kDim = 2;
constexpr std::size_t kK = 8;
constexpr double kRadius = 1.0;
constexpr double kDensity = 10.0;  // users per unit^2
constexpr std::size_t kLoadFrameUsers = 2048;
constexpr std::size_t kLoadWindow = 8;
constexpr std::size_t kFifo = 4096;
constexpr std::int64_t kSecond = 1'000'000'000;
constexpr std::int64_t kDrainNs = 30 * kSecond;
/// Block length of the read-storm phases, and slots per block of the slot
/// workloads (see Block).
constexpr std::int64_t kBlockNs = kSecond;
constexpr std::size_t kSlotsPerBlock = 8;
/// Quantiles over blocks that summarize per-block figures. Host steal on
/// the shared development box came and went over minutes (0-14 s of the 4
/// CPUs' time per 35 s run) and moved µs-scale latency medians up to 2x
/// and their tails 10-70x, so a per-block latency median is summarized by
/// its lowest decile over blocks (one clear block in ten suffices) and a
/// per-block rate by its upper quartile. A stall of the program that
/// recurs in most blocks still shows; a rarer one does not.
constexpr double kLatencyOverBlocks = 0.1;
constexpr double kRateOverBlocks = 0.75;

// ---------------------------------------------------------------------------
// Workloads

struct Spec {
  const char* name;
  std::size_t users;
  bool wal;
  serve::SolverTier tier;
  std::size_t slot_mutations;  ///< per slot; 0 = read-storm (no slots)
};

constexpr double kReadRate = 20000.0;   // read-storm phase A, per second
constexpr std::size_t kReadConns = 2;
constexpr std::size_t kClosedDepth = 32;  // phase B, per connection
constexpr double kMutateRate = 5000.0;  // churn and read-storm phase C
/// Slots after which the served placement is checked and compared with a
/// from-scratch lazy greedy (fixed, so quality repeats exactly per seed).
constexpr std::size_t kCheckpointSlots[] = {5, 10, 15};
/// Seed of the fixed population panel the extra set-ups load.
constexpr std::uint64_t kSetupPanelSeed = 2011;

const Spec kSpecs[] = {
    {"read-storm", 100000, false, serve::SolverTier::kLazy, 0},
    {"churn-warm", 100000, true, serve::SolverTier::kLazy, 500},
    {"polish-ls", 2500, false, serve::SolverTier::kLs, 25},
};

// Metric names and units; perfbench/run.py checks them against
// BENCHMARK.json.
struct MetricDef {
  const char* name;
  const char* unit;
};
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"query_p50_ms", "ms"},
    {"placement_quality", "ratio"},
    {"cpu_ms_per_kreq", "ms"},
    {"cpu_ms_per_kmut", "ms"},
    {"ok_rate", "fraction"},
    {"peak_rss_mb", "MB"},
};
const MetricDef kPerLayer[] = {
    {"net.syscalls_per_req", "count"},
    {"net.syscall_us_per_req", "us"},
    {"net.frames_per_read", "count"},
    {"net.bytes_per_req", "bytes"},
    {"net.request_us", "us"},
    {"net.codec_ns_per_frame", "ns"},
    {"serve.batch_size", "count"},
    {"serve.batch_us", "us"},
    {"serve.queue_wait_us", "us"},
    {"serve.rejected", "count"},
    {"serve.timeouts", "count"},
    {"serve.incremental_ratio", "ratio"},
    {"serve.full_solve_ms", "ms"},
    {"serve.shard_ms", "ms"},
    {"serve.merge_ms", "ms"},
    {"wal.fsyncs_per_kmut", "count"},
    {"wal.writes_per_mut", "count"},
    {"wal.bytes_per_mut", "bytes"},
    {"wal.checkpoints", "count"},
    {"wal.checkpoint_ms", "ms"},
    {"wal.recover_s", "s"},
    {"sim.warm_ms", "ms"},
    {"spatial.points_per_query", "count"},
    {"spatial.queries_per_slot", "count"},
    {"spatial.updates_per_mut", "count"},
    {"spatial.rebuilds", "count"},
    {"ls.polish_ms", "ms"},
    {"ls.evals_per_slot", "count"},
    {"ls.evals_per_s", "1/s"},
    {"ls.moves_per_kevals", "count"},
    {"bench.gen_lag_p99_ms", "ms"},
    {"bench.trace_overhead", "ratio"},
    {"bench.placement_attributed", "ratio"},
    {"bench.setup_load_s", "s"},
    {"bench.setup_solve_s", "s"},
    {"e2e.mutate_p50_ms", "ms"},
    {"e2e.query_p90_ms", "ms"},
    {"e2e.mutate_p90_ms", "ms"},
    {"e2e.rps", "1/s"},
};

struct Options {
  const Spec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::size_t setups = 5;
  std::string revision = "unknown";
};

// ---------------------------------------------------------------------------
// Small utilities

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

struct Cpu {
  double process_s = 0.0;
  double generator_s = 0.0;
};

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

/// Process CPU and the calling (generator) thread's CPU.
Cpu cpu_now() {
  rusage self{};
  rusage thread{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_THREAD, &thread);
  return Cpu{tv_s(self.ru_utime) + tv_s(self.ru_stime),
             tv_s(thread.ru_utime) + tv_s(thread.ru_stime)};
}

/// Server-thread CPU seconds between two samples: process CPU minus the
/// generator thread's.
double server_s(const Cpu& from, const Cpu& to) {
  return (to.process_s - from.process_s) - (to.generator_s - from.generator_s);
}

/// Milliseconds of server CPU per 1,000 units.
double ms_per_k(double server_seconds, std::uint64_t units) {
  return server_seconds * 1e6 / static_cast<double>(units);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

/// Steal ticks of the aggregate `cpu` line of /proc/stat (0 if absent).
long long steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long fields[8] = {};
  in >> cpu;
  for (long long& f : fields) in >> f;
  return in ? fields[7] : 0;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Box-speed probe: a fixed xorshift + floating-point loop that runs no
/// repository code. ns per iteration, median of three passes.
double box_probe_ns() {
  std::vector<double> passes;
  for (int pass = 0; pass < 3; ++pass) {
    std::uint64_t x = 88172645463325252ull;
    double acc = 0.0;
    constexpr int kIters = 10'000'000;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kIters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += static_cast<double>(x >> 11) * 0x1.0p-53;
    }
    const std::int64_t t1 = now_ns();
    volatile double sink = acc;
    (void)sink;
    passes.push_back(static_cast<double>(t1 - t0) / kIters);
  }
  return median(passes);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Population mirror: the generator's own model of what the store holds.

struct Mirror {
  std::vector<std::uint64_t> ids;
  std::vector<double> weights;
  std::vector<double> coords;  ///< row-major, kDim per row
  std::unordered_map<std::uint64_t, std::size_t> row;
  std::uint64_t epoch = 0;  ///< effective mutations sent so far

  [[nodiscard]] std::size_t size() const { return ids.size(); }

  void upsert(std::uint64_t id, double x, double y, double w) {
    ++epoch;
    const auto it = row.find(id);
    if (it != row.end()) {
      coords[2 * it->second] = x;
      coords[2 * it->second + 1] = y;
      weights[it->second] = w;
      return;
    }
    row.emplace(id, ids.size());
    ids.push_back(id);
    weights.push_back(w);
    coords.push_back(x);
    coords.push_back(y);
  }

  void remove(std::uint64_t id) {
    ++epoch;
    const std::size_t r = row.at(id);
    const std::size_t last = ids.size() - 1;
    if (r != last) {
      ids[r] = ids[last];
      weights[r] = weights[last];
      coords[2 * r] = coords[2 * last];
      coords[2 * r + 1] = coords[2 * last + 1];
      row[ids[r]] = r;
    }
    ids.pop_back();
    weights.pop_back();
    coords.resize(2 * last);
    row.erase(id);
  }
};

core::Problem make_problem(const std::vector<double>& coords,
                           const std::vector<double>& weights) {
  return core::Problem(geo::PointSet(kDim, coords), weights, kRadius,
                       geo::Metric{}, core::RewardShape::kLinear);
}

/// Rows of a store image sorted by id, for set comparison with a mirror.
struct Rows {
  std::vector<std::uint64_t> ids;
  std::vector<double> weights;
  std::vector<double> coords;
};

Rows sorted_rows(const std::vector<std::uint64_t>& ids,
                 const std::vector<double>& weights,
                 const std::vector<double>& coords) {
  std::vector<std::size_t> order(ids.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return ids[a] < ids[b]; });
  Rows rows;
  for (const std::size_t i : order) {
    rows.ids.push_back(ids[i]);
    rows.weights.push_back(weights[i]);
    rows.coords.push_back(coords[kDim * i]);
    rows.coords.push_back(coords[kDim * i + 1]);
  }
  return rows;
}

bool same_rows(const Rows& a, const Rows& b) {
  return a.ids == b.ids && a.weights == b.weights && a.coords == b.coords;
}

/// Deterministic churn: joins, leaves and moves in strict rotation, with
/// every choice drawn from the seeded generator, so the population
/// sequence depends on the seed alone, never on timing.
class Churn {
 public:
  Churn(std::uint64_t seed, double side, std::uint64_t next_id)
      : rng_(seed), side_(side), next_id_(next_id) {
    add_.type = net::FrameType::kAddUsers;
    add_.users.resize(1);
    add_.users[0].interest.resize(kDim);
    remove_.type = net::FrameType::kRemoveUsers;
    remove_.ids.resize(1);
  }

  /// Builds the next mutation, applies it to \p mirror, and returns the
  /// frame to send (owned by this object, valid until the next call).
  net::RequestFrame& next(Mirror& mirror) {
    const std::uint64_t kind = count_++ % 3;
    if (kind == 0 || mirror.size() < 2) {  // join
      serve::UserRecord& u = add_.users[0];
      u.id = next_id_++;
      u.interest[0] = rng_.uniform(0.0, side_);
      u.interest[1] = rng_.uniform(0.0, side_);
      u.weight = static_cast<double>(rng_.uniform_int(1, 5));
      mirror.upsert(u.id, u.interest[0], u.interest[1], u.weight);
      return add_;
    }
    const auto r = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(mirror.size()) - 1));
    const std::uint64_t id = mirror.ids[r];
    if (kind == 1) {  // leave
      remove_.ids[0] = id;
      mirror.remove(id);
      return remove_;
    }
    // move: a step of up to one radius per axis, clamped to the box
    serve::UserRecord& u = add_.users[0];
    u.id = id;
    u.weight = mirror.weights[r];
    for (std::size_t d = 0; d < kDim; ++d) {
      const double step = rng_.uniform(-kRadius, kRadius);
      u.interest[d] = std::clamp(mirror.coords[kDim * r + d] + step, 0.0, side_);
    }
    mirror.upsert(id, u.interest[0], u.interest[1], u.weight);
    return add_;
  }

 private:
  mmph::rnd::Rng rng_;
  double side_;
  std::uint64_t next_id_;
  std::uint64_t count_ = 0;
  net::RequestFrame add_;
  net::RequestFrame remove_;
};

// ---------------------------------------------------------------------------
// Checks and tallies

struct Checks {
  std::vector<std::pair<std::string, std::string>> failures;
  std::size_t passed = 0;

  void expect(bool ok, const std::string& name, const std::string& detail = "") {
    if (ok) {
      ++passed;
    } else {
      failures.emplace_back(name, detail);
    }
  }
  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Requests attempted / answered kOk / failed, per phase and op.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
};

enum Phase : std::uint8_t { kSetup, kPhaseA, kPhaseB, kPhaseC, kSlots, kPhases };
const char* const kPhaseNames[kPhases] = {"setup", "open_read", "closed_read",
                                          "open_mutate", "slots"};

/// Reply tags: phase (8 bits) | block (16 bits) | value (40 bits).
std::uint64_t make_tag(Phase phase, std::size_t block, std::uint64_t value) {
  return (static_cast<std::uint64_t>(phase) << 56) |
         (static_cast<std::uint64_t>(block & 0xffff) << 40) |
         (value & ((1ull << 40) - 1));
}
Phase tag_phase(std::uint64_t tag) { return static_cast<Phase>(tag >> 56); }
std::uint32_t tag_block(std::uint64_t tag) {
  return static_cast<std::uint32_t>((tag >> 40) & 0xffff);
}
std::uint64_t tag_value(std::uint64_t tag) { return tag & ((1ull << 40) - 1); }

// ---------------------------------------------------------------------------
// CPU placement

/// The generator runs on the first CPU the process may use and the
/// server's threads on the others. Client and server then never share a
/// CPU, and the scheduler cannot place them differently from run to run:
/// unpinned, server CPU per cached read moved 11-15 us between runs.
/// Without two allowed CPUs nothing is pinned.
struct CpuPlan {
  cpu_set_t generator;
  cpu_set_t server;
  bool pinned = false;
};

CpuPlan plan_cpus() {
  CpuPlan plan;
  CPU_ZERO(&plan.generator);
  CPU_ZERO(&plan.server);
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0 ||
      CPU_COUNT(&allowed) < 2) {
    return plan;
  }
  bool first = true;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, first ? &plan.generator : &plan.server);
    first = false;
  }
  plan.pinned = sched_setaffinity(0, sizeof(plan.generator), &plan.generator) == 0;
  return plan;
}

/// Moves the calling thread to the server CPUs for its lifetime, so the
/// threads it starts inherit them, then back to the generator CPU.
class ServerCpus {
 public:
  explicit ServerCpus(const CpuPlan& plan) : plan_(plan) {
    if (plan_.pinned) sched_setaffinity(0, sizeof(plan_.server), &plan_.server);
  }
  ~ServerCpus() {
    if (plan_.pinned) {
      sched_setaffinity(0, sizeof(plan_.generator), &plan_.generator);
    }
  }
  ServerCpus(const ServerCpus&) = delete;
  ServerCpus& operator=(const ServerCpus&) = delete;

 private:
  const CpuPlan& plan_;
};

// ---------------------------------------------------------------------------
// The server under test

struct Server {
  std::unique_ptr<mmph::par::ThreadPool> pool;
  /// The WAL lives in memory: a disk's fsync latency drifts by multiples
  /// between runs on a shared host, and memory is what a RAM-backed
  /// log directory gives (MemFileOps' fsync is a no-op, like tmpfs).
  std::unique_ptr<wal::MemFileOps> files;
  std::unique_ptr<RecordingFileOps> file_ops;
  std::unique_ptr<wal::WalWriter> writer;
  std::unique_ptr<net::NetServer> server;
  std::string wal_dir;

  Server() = default;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server() { stop(); }

  void stop() {
    if (server) server->stop();
    server.reset();
    writer.reset();
  }
};

std::unique_ptr<Server> start_server(const Spec& spec, const CpuPlan& cpus,
                                     net::SocketOps* socket_ops,
                                     const std::string& wal_dir,
                                     std::size_t expected_fsyncs) {
  const ServerCpus on_server_cpus(cpus);
  auto s = std::make_unique<Server>();
  s->pool = std::make_unique<mmph::par::ThreadPool>(2);
  serve::ServiceConfig config;
  config.dim = kDim;
  config.k = kK;
  config.radius = kRadius;
  config.shape = core::RewardShape::kLinear;
  config.solver = spec.tier;
  config.store_shards = 1;
  if (spec.wal) {
    s->wal_dir = wal_dir;
    s->files = std::make_unique<wal::MemFileOps>();
    s->file_ops = std::make_unique<RecordingFileOps>(*s->files, expected_fsyncs);
    wal::WalConfig wal_config;
    wal_config.dir = wal_dir;
    wal_config.fsync = wal::FsyncPolicy::kGroupCommit;
    wal_config.snapshot_every_ops = 4096;
    wal_config.file_ops = s->file_ops.get();
    s->writer = std::make_unique<wal::WalWriter>(wal_config);
    config.wal = s->writer.get();
  }
  net::NetServerConfig net_config;
  net_config.loops = 1;
  net_config.socket_ops = socket_ops;
  s->server =
      std::make_unique<net::NetServer>(config, net_config, s->pool.get());
  s->server->start();
  return s;
}

// ---------------------------------------------------------------------------
// One pass: setup + measured window, optionally traced

struct SetupResult {
  double rss_before_mb = 0.0;  ///< VmHWM before the server starts
  double load_s = 0.0;
  double solve_s = 0.0;
  double total_s = 0.0;
  double objective = 0.0;
  std::vector<double> centers;  ///< the first placement, row-major
};

struct CheckpointCopy {
  std::size_t slot = 0;
  std::vector<double> coords;
  std::vector<double> weights;
  std::vector<double> centers;
  std::size_t center_count = 0;
  double served = 0.0;
};

/// A latency sample and the block it belongs to.
struct Sample {
  std::uint32_t block = 0;
  double ms = 0.0;
};

/// A slice of the measured window. Rates, CPU per request and latency
/// medians are computed per block, then summarized over the blocks (see
/// kLatencyOverBlocks), so host steal that hits part of the run does not
/// move the run's figure.
struct Block {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  Cpu cpu_start;
  Cpu cpu_end;
  std::uint64_t completed = 0;
  /// Slot workloads: server CPU over the block's mutation phases (slot
  /// start to the slot's last ack) and the mutations acked in them.
  double mutate_server_s = 0.0;
  std::uint64_t mutations = 0;
};

struct Pass {
  // measured window
  std::vector<Sample> query;
  std::vector<Sample> mutate;
  std::vector<double> lag_ms;
  std::vector<std::pair<std::int64_t, std::int64_t>> acked;  ///< send, recv
  Tally tally[kPhases][3] = {};
  /// read-storm: phase-A blocks carry read CPU, phase-B blocks the
  /// closed-loop rate, phase-C blocks mutation CPU; slot workloads: kSlots
  /// blocks carry all three.
  std::vector<Block> blocks[kPhases];
  std::size_t slots = 0;
  std::vector<CheckpointCopy> checkpoints;
  SetupResult setup;
  std::vector<double> setup_s;
  double peak_rss_mb = 0.0;
  // traced-only observations
  std::vector<mmph::trace::SpanStats> setup_spans;
  std::vector<mmph::trace::SpanStats> window_spans;
  serve::MetricsSnapshot serve_before;
  serve::MetricsSnapshot serve_after;
  /// Service counters after the last checkpoint slot: per-slot counts are
  /// taken over this fixed slot range, so they repeat exactly per seed.
  serve::MetricsSnapshot serve_counted;
  std::size_t counted_slots = 0;
  net::NetMetricsSnapshot net_before;
  net::NetMetricsSnapshot net_after;
  CountingSocketOps::Totals sock_before;
  CountingSocketOps::Totals sock_after;
  RecordingFileOps::Totals file_before;
  RecordingFileOps::Totals file_after;
  SideSpans side;
  double recover_s = 0.0;

  /// Server-thread CPU per 1,000 requests, median over CPU blocks (CPU
  /// time does not grow with steal the way latency does).
  [[nodiscard]] double cpu_ms_per_kreq() const { return median(cpu_per_block()); }

  [[nodiscard]] std::vector<double> cpu_per_block() const {
    std::vector<double> per_block;
    for (const Block& b : blocks[blocks[kPhaseA].empty() ? kSlots : kPhaseA]) {
      if (b.completed == 0) continue;
      per_block.push_back(ms_per_k(server_s(b.cpu_start, b.cpu_end), b.completed));
    }
    return per_block;
  }

  /// Server-thread CPU per 1,000 acked mutations, median over blocks:
  /// read-storm's phase C (no WAL), the slot workloads' mutation phases.
  [[nodiscard]] double cpu_ms_per_kmut() const {
    return median(mutate_cpu_per_block());
  }

  [[nodiscard]] std::vector<double> mutate_cpu_per_block() const {
    std::vector<double> per_block;
    for (const Block& b : blocks[kPhaseC]) {
      if (b.completed > 0) {
        per_block.push_back(ms_per_k(server_s(b.cpu_start, b.cpu_end), b.completed));
      }
    }
    for (const Block& b : blocks[kSlots]) {
      if (b.mutations > 0) per_block.push_back(ms_per_k(b.mutate_server_s, b.mutations));
    }
    return per_block;
  }

  /// Completed requests per second over the closed-loop blocks.
  [[nodiscard]] double rps() const {
    return percentile(rps_per_block(), kRateOverBlocks);
  }

  [[nodiscard]] std::vector<double> rps_per_block() const {
    std::vector<double> per_block;
    for (const Block& b : blocks[blocks[kPhaseB].empty() ? kSlots : kPhaseB]) {
      if (b.end_ns - b.start_ns >= kBlockNs / 4) {
        per_block.push_back(static_cast<double>(b.completed) * 1e9 /
                            static_cast<double>(b.end_ns - b.start_ns));
      }
    }
    return per_block;
  }
};

std::vector<double> values_of(const std::vector<Sample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.ms);
  return out;
}

/// Percentile \p q of each block with at least \p min_samples samples.
std::vector<double> per_block_percentiles(const std::vector<Sample>& samples,
                                          double q, std::size_t min_samples) {
  std::vector<std::vector<double>> by_block;
  for (const Sample& s : samples) {
    if (s.block >= by_block.size()) by_block.resize(s.block + 1);
    by_block[s.block].push_back(s.ms);
  }
  std::vector<double> per_block;
  for (auto& v : by_block) {
    if (v.size() >= min_samples) per_block.push_back(percentile(std::move(v), q));
  }
  return per_block;
}

/// Median per block (blocks with at least 20 samples), summarized over
/// blocks; all samples pooled when no block has 20.
double block_median(const std::vector<Sample>& samples) {
  std::vector<double> per_block = per_block_percentiles(samples, 0.5, 20);
  return per_block.empty() ? percentile(values_of(samples), 0.5)
                           : percentile(std::move(per_block), kLatencyOverBlocks);
}

/// A population and the bulk-load frames that carry it over the wire.
struct Population {
  Mirror mirror;
  std::vector<net::RequestFrame> frames;
};

/// Ids 1..N, uniform in the box, weights uniform in {1..5}; drawn from
/// (seed, variant) alone.
Population make_population(std::size_t users, double side, std::uint64_t seed,
                           std::uint64_t variant) {
  Population pop;
  mmph::rnd::Rng rng(seed * 0x9E3779B97F4A7C15ull + 17 +
                     variant * 0xD1B54A32D192ED03ull);
  for (std::size_t i = 0; i < users; ++i) {
    const double x = rng.uniform(0.0, side);
    const double y = rng.uniform(0.0, side);
    const auto w = static_cast<double>(rng.uniform_int(1, 5));
    pop.mirror.upsert(i + 1, x, y, w);
  }
  for (std::size_t first = 0; first < users; first += kLoadFrameUsers) {
    net::RequestFrame frame;
    frame.type = net::FrameType::kAddUsers;
    for (std::size_t i = first; i < std::min(first + kLoadFrameUsers, users); ++i) {
      serve::UserRecord u;
      u.id = pop.mirror.ids[i];
      u.interest = {pop.mirror.coords[2 * i], pop.mirror.coords[2 * i + 1]};
      u.weight = pop.mirror.weights[i];
      frame.users.push_back(std::move(u));
    }
    pop.frames.push_back(std::move(frame));
  }
  return pop;
}

class Runner {
 public:
  Runner(const Options& options, const CpuPlan& cpus, Checks& checks)
      : opt_(options),
        spec_(*options.spec),
        cpus_(cpus),
        checks_(checks),
        side_(std::sqrt(static_cast<double>(spec_.users) / kDensity)),
        main_(make_population(spec_.users, side_, options.seed, 0)) {}

  /// Sets up once, runs the workload for `seconds` against that server,
  /// reads peak RSS, runs every post-run check, then sets up `setups - 1`
  /// more times (each server stopped again) so setup_s is a median. Peak
  /// RSS is read before the checks and the extra set-ups, so it covers
  /// one server and the generator, not the checks' reference solves and
  /// log replay.
  Pass run(bool traced, std::size_t setups) {
    Pass pass;
    pass.side.enabled = traced;
    const double rate = spec_.slot_mutations > 0 ? kMutateRate + 1.0 : kReadRate;
    const auto expected =
        static_cast<std::size_t>(rate * opt_.seconds * 1.5) + 4096;
    pass.query.reserve(expected);
    pass.mutate.reserve(expected);
    pass.lag_ms.reserve(expected);
    pass.acked.reserve(spec_.wal ? expected : 0);

    mmph::trace::SpanCollector& spans = mmph::trace::SpanCollector::global();
    spans.reset();
    spans.set_enabled(traced);
    std::unique_ptr<CountingSocketOps> sock_ops;
    if (traced) sock_ops = std::make_unique<CountingSocketOps>();

    std::unique_ptr<Server> server;
    pass.setup = setup(server, main_, sock_ops.get(), expected, pass);
    pass.setup_s.push_back(pass.setup.total_s);
    net::NetServer& srv = *server->server;
    if (traced) {
      pass.setup_spans = spans.stats();
      spans.reset();
    }
    pass.serve_before = srv.service().metrics();
    pass.net_before = srv.metrics();
    if (sock_ops) pass.sock_before = sock_ops->totals();
    if (server->file_ops) pass.file_before = server->file_ops->totals();

    Mirror mirror = main_.mirror;
    if (spec_.slot_mutations == 0) {
      read_storm(srv, mirror, pass);
    } else {
      slots(srv, mirror, pass);
    }

    pass.peak_rss_mb = peak_rss_mb();
    pass.serve_after = srv.service().metrics();
    pass.net_after = srv.metrics();
    if (sock_ops) pass.sock_after = sock_ops->totals();
    if (server->file_ops) pass.file_after = server->file_ops->totals();
    if (traced) pass.window_spans = spans.stats();
    spans.set_enabled(false);

    // End-of-run population equals the mirror.
    const wal::WalSnapshot live = srv.service().wal_snapshot();
    const Rows want = sorted_rows(mirror.ids, mirror.weights, mirror.coords);
    checks_.expect(same_rows(sorted_rows(live.ids, live.weights, live.coords), want),
                   "final_population", "live store differs from the mirror");
    checks_.expect(live.epoch == mirror.epoch, "final_epoch",
                   std::to_string(live.epoch) + " != " +
                       std::to_string(mirror.epoch));

    if (spec_.wal) {
      durability(*server, pass, want);
    }
    server.reset();
    verify_checkpoints(pass);

    // The extra set-ups load a fixed panel of populations, the same for
    // every seed: the first solve's cost depends on the instance (the ls
    // polish at set-up took 0.12-0.32 s across draws at N = 2,500), and a
    // fixed panel keeps that out of setup_s's spread between seeds.
    for (std::size_t i = 1; i < setups; ++i) {
      const Population pop =
          make_population(spec_.users, side_, kSetupPanelSeed, i);
      pass.setup_s.push_back(setup(server, pop, nullptr, expected, pass).total_s);
      server.reset();
    }
    return pass;
  }

 private:
  // --- setup ---------------------------------------------------------

  SetupResult setup(std::unique_ptr<Server>& server, const Population& pop,
                    net::SocketOps* sock_ops, std::size_t expected_fsyncs,
                    Pass& pass) {
    SetupResult result;
    const std::string wal_dir = "wal";
    // send() stamps request ids into the frames, so load a copy (made
    // before the clock starts).
    std::vector<net::RequestFrame> frames = pop.frames;
    result.rss_before_mb = peak_rss_mb();
    const std::int64_t t0 = now_ns();
    server = start_server(spec_, cpus_, sock_ops, wal_dir, expected_fsyncs);
    std::optional<net::ResponseFrame> placement;
    Loopback lb(server->server->port(), 1, kFifo, &pass.side,
                [&](const Reply& r) {
                  Tally& t = pass.tally[kSetup][static_cast<int>(r.op)];
                  const bool ok =
                      r.frame != nullptr && r.frame->status == net::WireStatus::kOk;
                  ok ? ++t.ok : ++t.failed;
                  if (ok && r.op == Op::kQuery) placement = *r.frame;
                });
    std::size_t sent = 0;
    while (sent < frames.size() || lb.inflight(0) > 0) {
      while (sent < frames.size() && lb.inflight(0) < kLoadWindow) {
        ++pass.tally[kSetup][static_cast<int>(Op::kLoad)].attempted;
        lb.send(0, frames[sent++], Op::kLoad, make_tag(kSetup, 0, 0),
                now_ns());
      }
      lb.poll(now_ns() + kDrainNs);
    }
    const std::int64_t loaded_ns = now_ns();
    net::RequestFrame query;
    query.type = net::FrameType::kQueryPlacement;
    ++pass.tally[kSetup][static_cast<int>(Op::kQuery)].attempted;
    lb.send(0, query, Op::kQuery, make_tag(kSetup, 0, 0), now_ns());
    lb.drain(now_ns() + 120 * kSecond);
    const std::int64_t t1 = now_ns();
    result.load_s = static_cast<double>(loaded_ns - t0) / 1e9;
    result.solve_s = static_cast<double>(t1 - loaded_ns) / 1e9;
    result.total_s = static_cast<double>(t1 - t0) / 1e9;
    checks_.expect(placement.has_value(), "setup_placement", "no placement reply");
    if (placement) {
      result.objective = placement->objective;
      if (placement->centers) {
        const geo::PointSet& c = *placement->centers;
        for (std::size_t j = 0; j < c.size(); ++j) {
          for (std::size_t d = 0; d < kDim; ++d) result.centers.push_back(c[j][d]);
        }
      }
      checks_.expect(placement->epoch == pop.mirror.epoch, "setup_epoch",
                     std::to_string(placement->epoch) + " != " +
                         std::to_string(pop.mirror.epoch));
    }
    return result;
  }

  // --- reply handling shared by the measured phases -----------------

  /// Tallies \p r, checks its epoch, and records mutation samples.
  /// Returns true for a kOk reply.
  bool on_reply(const Reply& r, Mirror& mirror, Pass& pass) {
    const Phase phase = tag_phase(r.tag);
    Tally& t = pass.tally[phase][static_cast<int>(r.op)];
    const bool ok = r.frame != nullptr && r.frame->status == net::WireStatus::kOk;
    if (!ok) {
      ++t.failed;
      return false;
    }
    ++t.ok;
    if (r.op == Op::kMutate) {
      // The ack carries the epoch after its whole batch: at least this
      // mutation's, at most that of the newest mutation sent.
      const std::uint64_t floor_epoch = tag_value(r.tag);
      if (r.frame->epoch < floor_epoch || r.frame->epoch > mirror.epoch) {
        checks_.expect(false, "mutation_epoch",
                       std::to_string(r.frame->epoch) + " outside [" +
                           std::to_string(floor_epoch) + ", " +
                           std::to_string(mirror.epoch) + "]");
      }
      pass.mutate.push_back(Sample{tag_block(r.tag), ms(r.recv_ns - r.due_ns)});
      pass.lag_ms.push_back(ms(r.send_ns - r.due_ns));
      if (spec_.wal) pass.acked.emplace_back(r.send_ns, r.recv_ns);
    } else if (r.op == Op::kQuery && r.frame->epoch != mirror.epoch) {
      checks_.expect(false, "query_epoch",
                     std::to_string(r.frame->epoch) +
                         " != " + std::to_string(mirror.epoch));
    }
    return true;
  }

  /// Blocks of kBlockNs covering [t0, t0 + duration).
  static std::vector<Block>& make_blocks(Pass& pass, Phase phase,
                                         std::int64_t t0,
                                         std::int64_t duration) {
    std::vector<Block>& blocks = pass.blocks[phase];
    for (std::int64_t start = t0; start < t0 + duration; start += kBlockNs) {
      Block b;
      b.start_ns = start;
      b.end_ns = std::min(start + kBlockNs, t0 + duration);
      blocks.push_back(b);
    }
    return blocks;
  }

  static std::size_t block_of(std::int64_t t, std::int64_t t0) {
    return static_cast<std::size_t>((t - t0) / kBlockNs);
  }

  /// Open loop for \p duration from now: send(i, block, due) sends request
  /// i at its due time, one per 1/\p rate seconds, and server CPU is
  /// sampled at every block boundary of \p phase. Drains at the end.
  template <typename Send>
  static void open_loop(Loopback& lb, Pass& pass, Phase phase,
                        std::int64_t duration, double rate, Send send) {
    const std::int64_t t0 = now_ns();
    std::vector<Block>& blocks = make_blocks(pass, phase, t0, duration);
    const auto period = static_cast<std::int64_t>(1e9 / rate);
    std::size_t open_block = 0;
    blocks[0].cpu_start = cpu_now();
    for (std::uint64_t i = 0;; ++i) {
      const std::int64_t due = t0 + static_cast<std::int64_t>(i) * period;
      if (due >= t0 + duration) break;
      const std::size_t b = block_of(due, t0);
      while (now_ns() < due) lb.poll(due);
      if (b != open_block) {
        blocks[open_block].cpu_end = blocks[b].cpu_start = cpu_now();
        open_block = b;
      }
      send(i, b, due);
    }
    lb.drain(now_ns() + kDrainNs);
    blocks[open_block].cpu_end = cpu_now();
  }

  // --- read-storm -------------------------------------------------------

  void read_storm(net::NetServer& srv, Mirror& mirror, Pass& pass) {
    const auto total = static_cast<std::int64_t>(opt_.seconds * 1e9);
    const std::int64_t dur_a = total * 45 / 100;
    const std::int64_t dur_b = total * 15 / 100;
    const std::int64_t dur_c = total - dur_a - dur_b;
    std::size_t resend[kReadConns] = {};
    std::int64_t tb = 0;
    Loopback lb(srv.port(), kReadConns, kFifo, &pass.side, [&](const Reply& r) {
      if (!on_reply(r, mirror, pass)) return;
      const Phase phase = tag_phase(r.tag);
      if (phase == kPhaseA) {
        pass.query.push_back(Sample{tag_block(r.tag), ms(r.recv_ns - r.due_ns)});
        pass.lag_ms.push_back(ms(r.send_ns - r.due_ns));
        ++pass.blocks[kPhaseA][tag_block(r.tag)].completed;
      } else if (phase == kPhaseB) {
        const std::size_t b = block_of(r.recv_ns, tb);
        if (b < pass.blocks[kPhaseB].size()) ++pass.blocks[kPhaseB][b].completed;
        ++resend[tag_value(r.tag)];
      } else {
        ++pass.blocks[kPhaseC][tag_block(r.tag)].completed;
      }
    });
    net::RequestFrame query;
    query.type = net::FrameType::kQueryPlacement;
    const std::uint64_t solves_before = solves(srv);

    // Phase A: open loop, cached reads at a fixed rate, timed from due.
    open_loop(lb, pass, kPhaseA, dur_a, kReadRate,
              [&](std::uint64_t i, std::size_t b, std::int64_t due) {
                ++pass.tally[kPhaseA][static_cast<int>(Op::kQuery)].attempted;
                lb.send(i % kReadConns, query, Op::kQuery,
                        make_tag(kPhaseA, b, 0), due);
              });

    // Phase B: closed loop, kClosedDepth requests in flight per connection;
    // completions are counted per block by arrival time.
    tb = now_ns();
    make_blocks(pass, kPhaseB, tb, dur_b);
    for (std::size_t c = 0; c < kReadConns; ++c) {
      for (std::size_t j = 0; j < kClosedDepth; ++j) {
        ++pass.tally[kPhaseB][static_cast<int>(Op::kQuery)].attempted;
        lb.send(c, query, Op::kQuery, make_tag(kPhaseB, 0, c), now_ns());
      }
    }
    while (now_ns() < tb + dur_b) {
      lb.poll(tb + dur_b);
      for (std::size_t c = 0; c < kReadConns; ++c) {
        for (; resend[c] > 0 && now_ns() < tb + dur_b; --resend[c]) {
          ++pass.tally[kPhaseB][static_cast<int>(Op::kQuery)].attempted;
          lb.send(c, query, Op::kQuery, make_tag(kPhaseB, 0, c), now_ns());
        }
        resend[c] = 0;
      }
    }
    lb.drain(now_ns() + kDrainNs);

    // Phase C: open loop, single-user mutations (no WAL, no solve).
    Churn churn(opt_.seed * 31 + 7, side_, spec_.users + 1);
    open_loop(lb, pass, kPhaseC, dur_c, kMutateRate,
              [&](std::uint64_t, std::size_t b, std::int64_t due) {
                net::RequestFrame& frame = churn.next(mirror);
                ++pass.tally[kPhaseC][static_cast<int>(Op::kMutate)].attempted;
                lb.send(0, frame, Op::kMutate,
                        make_tag(kPhaseC, b, mirror.epoch), due);
              });
    checks_.expect(lb.mismatched() == 0, "reply_order", "reply id mismatch");
    checks_.expect(solves(srv) == solves_before, "cached_reads",
                   "read-storm triggered a solve");

    // The setup placement is the served view for every read.
    CheckpointCopy copy;
    copy.slot = 0;
    copy.coords = main_.mirror.coords;
    copy.weights = main_.mirror.weights;
    copy.centers = pass.setup.centers;
    copy.center_count = pass.setup.centers.size() / kDim;
    copy.served = pass.setup.objective;
    pass.checkpoints.push_back(std::move(copy));
  }

  static std::uint64_t solves(net::NetServer& srv) {
    const serve::MetricsSnapshot m = srv.service().metrics();
    return m.full_solves + m.incremental_solves;
  }

  // --- churn-warm / polish-ls slots ---------------------------------------

  void slots(net::NetServer& srv, Mirror& mirror, Pass& pass) {
    constexpr std::size_t kMutConn = 0;
    constexpr std::size_t kQueryConn = 1;
    std::optional<net::ResponseFrame> answer;
    std::int64_t answer_latency = 0;
    std::vector<Block>& blocks = pass.blocks[kSlots];
    blocks.reserve(1024);
    Loopback lb(srv.port(), 2, kFifo, &pass.side, [&](const Reply& r) {
      if (!on_reply(r, mirror, pass)) return;
      ++blocks[tag_block(r.tag)].completed;
      if (r.op == Op::kMutate) ++blocks[tag_block(r.tag)].mutations;
      if (r.op == Op::kQuery) {
        answer = *r.frame;
        answer_latency = r.recv_ns - r.send_ns;
      }
    });
    net::RequestFrame query;
    query.type = net::FrameType::kQueryPlacement;
    Churn churn(opt_.seed * 31 + 7, side_, spec_.users + 1);
    const auto period = static_cast<std::int64_t>(1e9 / kMutateRate);
    const serve::MetricsSnapshot before = srv.service().metrics();

    const std::int64_t end = now_ns() + static_cast<std::int64_t>(opt_.seconds * 1e9);
    while (now_ns() < end) {
      // Blocks of kSlotsPerBlock whole slots carry CPU and rate.
      const std::size_t b = pass.slots / kSlotsPerBlock;
      const std::int64_t ts = now_ns();
      const Cpu slot_cpu = cpu_now();
      if (pass.slots % kSlotsPerBlock == 0) {
        if (b > 0) {
          blocks[b - 1].end_ns = ts;
          blocks[b - 1].cpu_end = slot_cpu;
        }
        blocks.push_back(Block{ts, ts, slot_cpu, slot_cpu});
      }
      // Mutations at a fixed rate on one connection, timed from due.
      for (std::size_t j = 0; j < spec_.slot_mutations; ++j) {
        const std::int64_t due = ts + static_cast<std::int64_t>(j) * period;
        while (now_ns() < due) lb.poll(due);
        net::RequestFrame& frame = churn.next(mirror);
        ++pass.tally[kSlots][static_cast<int>(Op::kMutate)].attempted;
        lb.send(kMutConn, frame, Op::kMutate, make_tag(kSlots, b, mirror.epoch),
                due);
      }
      lb.drain(now_ns() + kDrainNs, kMutConn);
      blocks[b].mutate_server_s += server_s(slot_cpu, cpu_now());
      // Then the broadcaster asks for the slot's placement; the next slot
      // starts only after the reply, so the solver sees one fixed
      // population sequence per seed.
      answer.reset();
      ++pass.tally[kSlots][static_cast<int>(Op::kQuery)].attempted;
      lb.send(kQueryConn, query, Op::kQuery, make_tag(kSlots, b, 0), now_ns());
      lb.drain(now_ns() + kDrainNs, kQueryConn);
      if (!answer) break;  // counted as failed by the tally
      pass.query.push_back(Sample{static_cast<std::uint32_t>(b), ms(answer_latency)});
      ++pass.slots;
      if (pass.slots == std::end(kCheckpointSlots)[-1]) {
        pass.serve_counted = srv.service().metrics();
        pass.counted_slots = pass.slots;
      }
      const auto* cp = std::find(std::begin(kCheckpointSlots),
                                 std::end(kCheckpointSlots), pass.slots);
      if (cp != std::end(kCheckpointSlots)) {
        CheckpointCopy copy;
        copy.slot = pass.slots;
        copy.coords = mirror.coords;
        copy.weights = mirror.weights;
        copy.served = answer->objective;
        if (answer->centers) {
          const geo::PointSet& c = *answer->centers;
          copy.center_count = c.size();
          for (std::size_t j = 0; j < c.size(); ++j) {
            for (std::size_t d = 0; d < kDim; ++d) copy.centers.push_back(c[j][d]);
          }
        }
        pass.checkpoints.push_back(std::move(copy));
      }
    }
    if (!blocks.empty()) {
      blocks.back().end_ns = now_ns();
      blocks.back().cpu_end = cpu_now();
      // A trailing partial block is too short to carry stable figures.
      if (pass.slots % kSlotsPerBlock != 0 && blocks.size() > 1) {
        blocks.back().completed = 0;
        blocks.back().mutations = 0;
        blocks.back().end_ns = blocks.back().start_ns;
      }
    }
    checks_.expect(lb.mismatched() == 0, "reply_order", "reply id mismatch");
    const serve::MetricsSnapshot after = srv.service().metrics();
    if (pass.counted_slots == 0) {  // short run: count every slot
      pass.serve_counted = after;
      pass.counted_slots = pass.slots;
    }
    checks_.expect(after.full_solves == before.full_solves &&
                       after.incremental_solves - before.incremental_solves == pass.slots,
                   "warm_solves_only",
                   "a slot query took the full solve or no solve");
  }

  // --- post-run checks ------------------------------------------------------

  void durability(Server& server, Pass& pass, const Rows& want) {
    // Every acked mutation must have a log fsync complete between its send
    // and its ack (group commit is the ack barrier).
    const std::vector<std::int64_t> done = server.file_ops->fsync_done();
    std::size_t uncovered = 0;
    for (const auto& [sent, acked] : pass.acked) {
      const auto it = std::lower_bound(done.begin(), done.end(), sent);
      if (it == done.end() || *it > acked) ++uncovered;
    }
    checks_.expect(uncovered == 0, "durable_acks",
                   std::to_string(uncovered) + " of " +
                       std::to_string(pass.acked.size()) +
                       " acked mutations had no fsync between send and ack");
    // Recovery of the log after shutdown reproduces the mirror.
    server.stop();
    const std::int64_t t0 = now_ns();
    const wal::RecoveryResult rec =
        wal::recover(server.wal_dir, kDim, *server.files);
    pass.recover_s = static_cast<double>(now_ns() - t0) / 1e9;
    checks_.expect(rec.clean, "recover_clean", rec.detail);
    checks_.expect(same_rows(sorted_rows(rec.store.ids, rec.store.weights,
                                         rec.store.coords),
                             want),
                   "recover_population", "recovered log differs from the mirror");
  }

  void verify_checkpoints(Pass& pass) {
    for (CheckpointCopy& cp : pass.checkpoints) {
      const std::string at = "slot " + std::to_string(cp.slot);
      checks_.expect(cp.center_count == kK, "placement_centers",
                     at + ": " + std::to_string(cp.center_count) + " centers");
      const core::Problem problem = make_problem(cp.coords, cp.weights);
      const double f =
          core::objective_value(problem, geo::PointSet(kDim, cp.centers));
      const double rel = std::abs(f - cp.served) / std::max(std::abs(f), 1e-300);
      checks_.expect(rel <= 1e-9, "placement_objective",
                     at + ": served " + json_number(cp.served) +
                         " vs recomputed " + json_number(f));
      const core::Solution ref = core::LazyGreedySolver().solve(problem, kK);
      cp.served = ratio(cp.served, ref.total_reward);  // now the quality ratio
      cp.coords.clear();
      cp.coords.shrink_to_fit();
    }
  }

  const Options& opt_;
  const Spec& spec_;
  const CpuPlan& cpus_;
  Checks& checks_;
  double side_;
  Population main_;
};

// ---------------------------------------------------------------------------
// Metrics

using Metrics = std::vector<std::pair<const MetricDef*, double>>;

double placement_quality(const Pass& pass) {
  std::vector<double> q;
  for (const CheckpointCopy& cp : pass.checkpoints) q.push_back(cp.served);
  if (q.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : q) sum += v;
  return sum / static_cast<double>(q.size());
}

std::uint64_t attempted(const Pass& pass) {
  std::uint64_t n = 0;
  for (int p = kPhaseA; p < kPhases; ++p) {
    for (int o = 0; o < 3; ++o) n += pass.tally[p][o].attempted;
  }
  return n;
}

std::uint64_t failed(const Pass& pass) {
  std::uint64_t n = 0;
  for (int p = kPhaseA; p < kPhases; ++p) {
    for (int o = 0; o < 3; ++o) {
      const Tally& t = pass.tally[p][o];
      n += t.attempted - t.ok;
    }
  }
  return n;
}

/// Placement latencies of the slot workloads pool over the whole run
/// (about 100 per run, each a whole solve, CPU-bound rather than bound by
/// wake-ups); cached reads are per block.
double query_p50(const Pass& pass) {
  return pass.blocks[kSlots].empty() ? block_median(pass.query)
                                     : percentile(values_of(pass.query), 0.5);
}

Metrics end_to_end(const Pass& pass) {
  const double att = static_cast<double>(attempted(pass));
  const double values[] = {
      median(pass.setup_s),
      query_p50(pass),
      placement_quality(pass),
      pass.cpu_ms_per_kreq(),
      pass.cpu_ms_per_kmut(),
      ratio(att - static_cast<double>(failed(pass)), att),
      pass.peak_rss_mb,
  };
  static_assert(std::size(values) == std::size(kEndToEnd));
  Metrics out;
  for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
    out.emplace_back(&kEndToEnd[i], values[i]);
  }
  return out;
}

const mmph::trace::SpanStats* find_span(
    const std::vector<mmph::trace::SpanStats>& spans, const char* name) {
  for (const auto& s : spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

double span_total(const std::vector<mmph::trace::SpanStats>& spans,
                  const char* name) {
  const auto* s = find_span(spans, name);
  return s == nullptr ? 0.0 : s->total_seconds;
}

double span_count(const std::vector<mmph::trace::SpanStats>& spans,
                  const char* name) {
  const auto* s = find_span(spans, name);
  return s == nullptr ? 0.0 : static_cast<double>(s->count);
}

double span_mean(const std::vector<mmph::trace::SpanStats>& spans,
                 const char* name) {
  return ratio(span_total(spans, name), span_count(spans, name));
}

Metrics per_layer(const Pass& traced, const Pass& untraced) {
  const auto& w = traced.window_spans;
  const auto& s = traced.setup_spans;
  const serve::MetricsSnapshot& sa = traced.serve_after;
  const serve::MetricsSnapshot& sb = traced.serve_before;
  const net::NetMetricsSnapshot& na = traced.net_after;
  const net::NetMetricsSnapshot& nb = traced.net_before;
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  const double requests = d(na.requests, nb.requests);
  const double reads = d(traced.sock_after.reads, traced.sock_before.reads);
  const double syscalls = reads + d(traced.sock_after.writes, traced.sock_before.writes);
  const double syscall_ns =
      static_cast<double>(traced.sock_after.ns - traced.sock_before.ns);
  const double batches = d(sa.batches, sb.batches);
  const double solve_s = span_total(w, "serve.solve.full") +
                         span_total(w, "serve.solve.incremental");
  const double batch_self_us =
      ratio((span_total(w, "serve.batch") - solve_s) * 1e6, batches);
  const double request_us = span_mean(w, "net.request") * 1e6;
  const double queue_wait_us = std::max(
      0.0, ratio((span_total(w, "net.request") - solve_s) * 1e6,
                 span_count(w, "net.request")) -
               batch_self_us);
  const double mutations = d(sa.mutations, sb.mutations);
  const auto& fa = traced.file_after;
  const auto& fb = traced.file_before;
  const double fsyncs = d(fa.segment_fsyncs, fb.segment_fsyncs);
  const double checkpoints = d(fa.checkpoints, fb.checkpoints);
  const double incremental = d(sa.incremental_solves, sb.incremental_solves);
  const double full = d(sa.full_solves, sb.full_solves);
  const double polish_s = span_total(w, "serve.solve.polish");
  // Per-slot counts over the fixed counted-slot range (bit-identical per
  // seed); rates over the whole window.
  const serve::MetricsSnapshot& sc = traced.serve_counted;
  const double counted = static_cast<double>(traced.counted_slots);
  const double spatial_queries = d(sc.spatial_queries, sb.spatial_queries);
  const double counted_evals = d(sc.ls_evals, sb.ls_evals);
  const double evals = d(sa.ls_evals, sb.ls_evals);
  double placement_s = 0.0;
  for (const Sample& q : traced.query) placement_s += q.ms / 1e3;
  const double values[] = {
      ratio(syscalls, requests),
      ratio(syscall_ns / 1e3, requests),
      ratio(d(na.frames_in, nb.frames_in), reads),
      ratio(d(na.bytes_in, nb.bytes_in) + d(na.bytes_out, nb.bytes_out), requests),
      request_us,
      ratio(static_cast<double>(traced.side.codec_ns),
            static_cast<double>(traced.side.frames)),
      ratio(d(sa.batched_requests, sb.batched_requests), batches),
      batch_self_us,
      queue_wait_us,
      d(sa.rejected_full, sb.rejected_full),
      d(sa.timeouts, sb.timeouts),
      ratio(incremental, incremental + full),
      span_mean(s, "serve.solve.full") * 1e3,
      span_total(s, "serve.shard") * 1e3,
      span_total(s, "serve.merge") * 1e3,
      ratio(fsyncs * 1e3, mutations),
      ratio(d(fa.segment_writes, fb.segment_writes), mutations),
      ratio(d(fa.segment_bytes, fb.segment_bytes), mutations),
      checkpoints,
      ratio(static_cast<double>(fa.checkpoint_ns - fb.checkpoint_ns) / 1e6, checkpoints),
      traced.recover_s,
      ratio((span_total(w, "serve.solve.incremental") - polish_s) * 1e3, incremental),
      ratio(d(sc.spatial_points_touched, sb.spatial_points_touched), spatial_queries),
      ratio(spatial_queries, counted),
      ratio(d(sa.spatial_incremental_updates, sb.spatial_incremental_updates), mutations),
      d(sa.spatial_rebuilds, sb.spatial_rebuilds),
      span_mean(w, "serve.solve.polish") * 1e3,
      ratio(counted_evals, counted),
      ratio(evals, polish_s),
      ratio(d(sc.ls_moves, sb.ls_moves) * 1e3, counted_evals),
      percentile(untraced.lag_ms, 0.99),
      ratio(traced.cpu_ms_per_kreq(), untraced.cpu_ms_per_kreq()),
      ratio(span_total(w, "serve.solve.incremental"), placement_s),
      traced.setup.load_s,
      traced.setup.solve_s,
      block_median(untraced.mutate),
      percentile(values_of(untraced.query), 0.9),
      percentile(values_of(untraced.mutate), 0.9),
      untraced.rps(),
  };
  static_assert(std::size(values) == std::size(kPerLayer));
  Metrics out;
  for (std::size_t i = 0; i < std::size(kPerLayer); ++i) {
    out.emplace_back(&kPerLayer[i], values[i]);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output

std::string metrics_json(const Metrics& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(metrics[i].first->name) + ": {\"value\": " +
           json_number(metrics[i].second) +
           ", \"unit\": " + json_string(metrics[i].first->unit) + "}";
  }
  return out + "}";
}

std::string array_json(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.5g", i > 0 ? ", " : "", values[i]);
    out += buf;
  }
  return out + "]";
}

/// Per-block figures behind the block-summarized metrics, for spotting
/// steal bursts and drift between runs.
std::string blocks_json(const Pass& pass) {
  return "{\"query_p50\": " + array_json(per_block_percentiles(pass.query, 0.5, 1)) +
         ", \"query_p90\": " + array_json(per_block_percentiles(pass.query, 0.9, 1)) +
         ", \"mutate_p50\": " + array_json(per_block_percentiles(pass.mutate, 0.5, 1)) +
         ", \"mutate_p90\": " + array_json(per_block_percentiles(pass.mutate, 0.9, 1)) +
         ", \"rps\": " + array_json(pass.rps_per_block()) +
         ", \"cpu_ms_per_kreq\": " + array_json(pass.cpu_per_block()) +
         ", \"cpu_ms_per_kmut\": " + array_json(pass.mutate_cpu_per_block()) + "}";
}

std::string tallies_json(const Pass& pass) {
  static const char* const kOps[3] = {"load", "query", "mutate"};
  std::string out = "{";
  bool first = true;
  for (int p = 0; p < kPhases; ++p) {
    for (int o = 0; o < 3; ++o) {
      const Tally& t = pass.tally[p][o];
      if (t.attempted == 0 && t.ok == 0 && t.failed == 0) continue;
      if (!first) out += ", ";
      first = false;
      out += json_string(std::string(kPhaseNames[p]) + "." + kOps[o]) +
             ": {\"attempted\": " + std::to_string(t.attempted) +
             ", \"ok\": " + std::to_string(t.ok) +
             ", \"failed\": " + std::to_string(t.failed) + "}";
    }
  }
  return out + "}";
}

void check_tallies(const Pass& pass, Checks& checks) {
  for (int p = 0; p < kPhases; ++p) {
    for (int o = 0; o < 3; ++o) {
      const Tally& t = pass.tally[p][o];
      checks.expect(t.attempted == t.ok + t.failed, "answered_once",
                    std::string(kPhaseNames[p]) + ": attempted " +
                        std::to_string(t.attempted) + " != ok " +
                        std::to_string(t.ok) + " + failed " +
                        std::to_string(t.failed));
      if (p == kSetup) {
        checks.expect(t.failed == 0, "setup_ok", "setup request failed");
      }
    }
  }
}

int run(const Options& opt) {
  const long long steal0 = steal_ticks();
  const CpuPlan cpus = plan_cpus();
  const double probe_ns = box_probe_ns();
  Checks checks;
  Runner runner(opt, cpus, checks);

  Pass untraced = runner.run(false, opt.trace ? 1 : opt.setups);
  check_tallies(untraced, checks);
  Metrics metrics;
  std::optional<Pass> traced;
  if (opt.trace) {
    traced = runner.run(true, 1);
    check_tallies(*traced, checks);
    metrics = per_layer(*traced, untraced);
  } else {
    metrics = end_to_end(untraced);
  }
  const long long steal1 = steal_ticks();
  const Pass& main_pass = traced ? *traced : untraced;

  // Human-readable report.
  std::printf("workload %s  seed %llu  seconds %.1f  trace %d\n", opt.spec->name,
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::printf("  setup_s runs:");
  for (const double s : untraced.setup_s) std::printf(" %.4f", s);
  std::printf("\n  samples: query %zu  mutate %zu  slots %zu\n",
              main_pass.query.size(), main_pass.mutate.size(),
              main_pass.slots);
  for (const auto& [def, value] : metrics) {
    const std::string name = def->name;
    std::string note;
    if (name.find("query_p") != std::string::npos) {
      note = "  (n=" + std::to_string(untraced.query.size()) + ")";
    } else if (name.find("mutate_p") != std::string::npos) {
      note = "  (n=" + std::to_string(untraced.mutate.size()) + ")";
    }
    std::printf("  %-28s %16.6f %s%s\n", def->name, value, def->unit, note.c_str());
  }
  for (const auto& [name, detail] : checks.failures) {
    std::printf("  CHECK FAILED %s: %s\n", name.c_str(), detail.c_str());
  }
  std::printf("  checks passed %zu, failed %zu\n", checks.passed,
              checks.failures.size());

  // Run record: enough to spot drift between two sets of runs.
  std::ostringstream rec;
  rec << "record {\"workload\": " << json_string(opt.spec->name)
      << ", \"seed\": " << opt.seed << ", \"seconds\": " << json_number(opt.seconds)
      << ", \"trace\": " << (opt.trace ? 1 : 0)
      << ", \"revision\": " << json_string(opt.revision)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"cpu_model\": " << json_string(cpu_model())
      << ", \"box_probe_ns\": " << json_number(probe_ns)
      << ", \"steal_s\": " << json_number(static_cast<double>(steal1 - steal0) / 100.0)
      << ", \"config\": {\"users\": " << opt.spec->users
      << ", \"box_side\": " << json_number(std::sqrt(opt.spec->users / kDensity))
      << ", \"k\": " << kK << ", \"radius\": " << json_number(kRadius)
      << ", \"solver\": " << json_string(serve::solver_tier_name(opt.spec->tier))
      << ", \"wal\": " << (opt.spec->wal ? "\"group commit, checkpoint every 4096 ops, in memory (wal::MemFileOps)\"" : "null")
      << ", \"slot_mutations\": " << opt.spec->slot_mutations
      << ", \"setups\": " << untraced.setup_s.size()
      << ", \"setup_runs_s\": " << array_json(untraced.setup_s)
      << ", \"loops\": 1, \"pool_workers\": 2, \"store_shards\": 1, \"index\": \"auto\""
      << ", \"generator_pinned\": " << (cpus.pinned ? "true" : "false") << "}"
      << ", \"samples\": {\"query\": " << main_pass.query.size()
      << ", \"mutate\": " << main_pass.mutate.size()
      << ", \"slots\": " << main_pass.slots << "}"
      << ", \"peak_rss_mb\": " << json_number(main_pass.peak_rss_mb)
      << ", \"rss_before_server_mb\": " << json_number(main_pass.setup.rss_before_mb)
      << ", \"blocks\": " << blocks_json(main_pass)
      << ", \"tallies\": " << tallies_json(main_pass)
      << ", \"checks_passed\": " << checks.passed << ", \"check_failures\": [";
  for (std::size_t i = 0; i < checks.failures.size(); ++i) {
    if (i > 0) rec << ", ";
    rec << json_string(checks.failures[i].first + ": " + checks.failures[i].second);
  }
  rec << "]}";
  std::printf("%s\n", rec.str().c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              checks.ok() ? "true" : "false",
              static_cast<unsigned long long>(attempted(main_pass)),
              static_cast<unsigned long long>(failed(main_pass)),
              metrics_json(metrics).c_str());
  std::fflush(stdout);
  return checks.ok() ? 0 : 1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "mmph_perfbench: %s\nusage: mmph_perfbench --workload "
               "read-storm|churn-warm|polish-ls --seed N --seconds S "
               "--trace 0|1 [--setups K] [--revision R]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return usage("missing value");
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        for (const Spec& s : kSpecs) {
          if (value == s.name) opt.spec = &s;
        }
        if (opt.spec == nullptr) return usage("unknown workload");
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        opt.trace = value == "1";
      } else if (key == "--setups") {
        opt.setups = std::max<std::size_t>(1, std::stoul(value));
      } else if (key == "--revision") {
        opt.revision = value;
      } else {
        return usage(("unknown flag " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (opt.spec == nullptr) return usage("--workload is required");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mmph_perfbench: %s\n", e.what());
    return 1;
  }
}
