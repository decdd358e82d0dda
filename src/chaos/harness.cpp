#include "mmph/chaos/harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "mmph/chaos/faulty_file_ops.hpp"
#include "mmph/chaos/faulty_socket_ops.hpp"
#include "mmph/chaos/injector.hpp"
#include "mmph/core/kernels.hpp"
#include "mmph/core/local_search.hpp"
#include "mmph/net/client.hpp"
#include "mmph/net/server.hpp"
#include "mmph/random/pcg64.hpp"
#include "mmph/serve/placement_service.hpp"
#include "mmph/wal/recovery.hpp"
#include "mmph/wal/sharded_wal.hpp"
#include "mmph/wal/snapshot.hpp"
#include "mmph/wal/writer.hpp"

namespace mmph::chaos {
namespace {

using std::chrono::milliseconds;

/// Distinct stream tags: the fault schedule and the request workload are
/// derived from the same seed but must not share a stream (adding a fault
/// site must not reshuffle the workload).
constexpr std::uint64_t kPlanStream = 0x9A7C0FFEE1234567ull;
constexpr std::uint64_t kWorkloadStream = 0x3C6EF372FE94F82Aull;

std::string describe(std::uint64_t seed, const std::string& what) {
  std::ostringstream out;
  out << "seed=" << seed << ": " << what;
  return out.str();
}

std::uint64_t total_fired(const Injector& injector) {
  std::uint64_t fired = 0;
  for (const SiteReport& site : injector.report()) fired += site.fired;
  return fired;
}

serve::UserRecord make_user(std::uint64_t id, rnd::Pcg64& rng) {
  serve::UserRecord user;
  user.id = id;
  user.interest = {rng.next_double(), rng.next_double()};
  user.weight = 0.5 + rng.next_double();
  return user;
}

geo::PointSet make_probe(rnd::Pcg64& rng) {
  geo::PointSet probe(2);
  const std::size_t count = 1 + rng.next_below(3);
  for (std::size_t i = 0; i < count; ++i) {
    const double row[2] = {rng.next_double(), rng.next_double()};
    probe.push_back(geo::ConstVec(row, 2));
  }
  return probe;
}

bool same_centers(const geo::PointSet& got, const geo::PointSet& want) {
  if (got.size() != want.size() || got.dim() != want.dim()) return false;
  for (std::size_t c = 0; c < got.size(); ++c) {
    for (std::size_t d = 0; d < got.dim(); ++d) {
      if (got[c][d] != want[c][d]) return false;
    }
  }
  return true;
}

}  // namespace

FaultPlan serve_plan_for_seed(std::uint64_t seed) {
  rnd::Pcg64 rng(seed ^ kPlanStream);
  FaultPlan plan;
  plan.seed = seed;
  // Each schedule draws its own mix; any site may also land near zero, so
  // the sweep covers "one dominant fault" as well as "everything at once".
  plan.with(serve::kFaultQueueFull, 0.25 * rng.next_double());
  plan.with(serve::kFaultDeadlineSkew, 0.20 * rng.next_double());
  plan.with(serve::kFaultSolverThrow, 0.20 * rng.next_double());
  plan.with(serve::kFaultAllocFail, 0.20 * rng.next_double());
  // Spatial-index faults are output-invisible by contract (the index is
  // an accelerator, never truth): the schedule may drop or corrupt the
  // carried grid at any point and the placement must not move a bit.
  plan.with(serve::kFaultSpatialAllocFail, 0.25 * rng.next_double());
  plan.with(serve::kFaultSpatialCorrupt, 0.25 * rng.next_double());
  return plan;
}

FaultPlan net_plan_for_seed(std::uint64_t seed) {
  return net_plan_for_seed(seed, 1);
}

FaultPlan net_plan_for_seed(std::uint64_t seed, std::size_t loops) {
  rnd::Pcg64 rng(seed ^ kPlanStream);
  FaultPlan plan;
  plan.seed = seed;
  // loops == 1 keeps the historical prefix pair (and thus the exact
  // per-seed probabilities); loops > 1 gives every loop its own server
  // prefix. Probabilities are drawn from one sequential stream, but each
  // *site*'s fire/no-fire stream is keyed by site name in the Injector,
  // so per-loop streams are independent regardless.
  std::vector<std::string> prefixes;
  if (loops <= 1) {
    prefixes.emplace_back(kServerSitePrefix);
  } else {
    for (std::size_t i = 0; i < loops; ++i) {
      prefixes.push_back(server_loop_site_prefix(i));
    }
  }
  prefixes.emplace_back(kClientSitePrefix);
  for (const std::string& p : prefixes) {
    // Retry-shaped faults stay under kMaxRetryProbability so every
    // EINTR/short-IO loop terminates; resets are kept rare because each
    // one costs a whole connection teardown + reconnect round.
    plan.with(p + "read_eintr", 0.20 * rng.next_double());
    plan.with(p + "read_short", kMaxRetryProbability * rng.next_double());
    plan.with(p + "read_reset", 0.04 * rng.next_double());
    plan.with(p + "write_eintr", 0.20 * rng.next_double());
    plan.with(p + "write_short", kMaxRetryProbability * rng.next_double());
    plan.with(p + "write_reset", 0.04 * rng.next_double());
    plan.with(p + "accept_eintr", 0.20 * rng.next_double());
  }
  return plan;
}

ChaosResult run_serve_chaos(const ServeChaosOptions& options) {
  ChaosResult result;
  result.seed = options.seed;
  auto fail = [&](const std::string& what) {
    result.ok = false;
    result.message = describe(options.seed, what);
    return result;
  };

  Injector injector(serve_plan_for_seed(options.seed));

  // Force the coverage grid on (populations here sit far below the kAuto
  // threshold) so the spatial.* fault sites are actually consulted; the
  // fault-free replay below runs under the same mode, and the index is
  // bit-invisible anyway.
  const core::kernels::ScopedIndexMode index_mode(
      core::kernels::IndexMode::kGrid);

  serve::ServiceConfig config;
  config.dim = 2;
  config.k = 4;
  config.radius = 0.3;
  // Every re-solve is a full sharded solve: the placement is then a pure
  // function of store content + row order, which makes the fault-free
  // replay below comparable bit-for-bit.
  config.full_solve_churn_fraction = 0.0;
  config.queue_capacity = options.queue_capacity;
  config.max_batch = 16;
  config.fault_hook = injector.hook();
  serve::PlacementService service(config);

  // The same sequence of kOk-answered mutations, replayed fault-free,
  // must land on the same placement. Op payloads are recorded up front;
  // which of them "took" is known only after the futures resolve.
  struct Mutation {
    bool is_add = false;
    std::vector<serve::UserRecord> users;
    std::vector<std::uint64_t> ids;
  };
  std::vector<Mutation> mutations;              // one per submitted op
  std::vector<std::size_t> mutation_of;         // future idx -> mutation idx
  std::vector<std::future<serve::Response>> futures;

  rnd::Pcg64 rng(options.seed ^ kWorkloadStream);
  std::uint64_t next_id = 1;
  std::vector<std::uint64_t> live;

  for (std::size_t op = 0; op < options.operations; ++op) {
    const std::uint64_t kind = rng.next_below(10);
    serve::Request request;
    Mutation mutation;
    if (kind < 5 || live.empty()) {  // add 1..4 users (some upserts)
      std::vector<serve::UserRecord> batch;
      const std::size_t count = 1 + rng.next_below(4);
      for (std::size_t j = 0; j < count; ++j) {
        const bool reuse = !live.empty() && rng.next_below(10) < 3;
        const std::uint64_t id =
            reuse ? live[rng.next_below(live.size())] : next_id++;
        if (!reuse) live.push_back(id);
        batch.push_back(make_user(id, rng));
      }
      mutation.is_add = true;
      mutation.users = batch;
      request = serve::Request::add_users(std::move(batch));
    } else if (kind < 7) {  // remove 1..2 ids (sometimes unknown)
      std::vector<std::uint64_t> ids;
      const std::size_t count = 1 + rng.next_below(2);
      for (std::size_t j = 0; j < count; ++j) {
        if (rng.next_below(10) < 8) {
          const std::size_t at = rng.next_below(live.size());
          ids.push_back(live[at]);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
        } else {
          ids.push_back(0xDEAD0000ull + rng.next_below(64));  // unknown id
        }
        if (live.empty()) break;
      }
      mutation.ids = ids;
      request = serve::Request::remove_users(std::move(ids));
    } else if (kind < 9) {
      request = serve::Request::query_placement();
    } else {
      request = serve::Request::evaluate(make_probe(rng));
    }
    request.deadline = std::chrono::steady_clock::now() + milliseconds(5000);
    const bool is_mutation = !mutation.users.empty() || !mutation.ids.empty();
    mutations.push_back(std::move(mutation));
    mutation_of.push_back(is_mutation ? mutations.size() - 1
                                      : static_cast<std::size_t>(-1));
    futures.push_back(service.submit(std::move(request)));
    ++result.requests;

    // Drain in bursts so the queue both fills (kRejected coverage) and
    // empties (deadline_skew coverage at dequeue).
    if (rng.next_below(4) == 0) {
      while (service.pump() > 0) {
      }
    }
  }
  while (service.pump() > 0) {
  }
  if (service.queue_depth() != 0) return fail("queue did not drain");

  // Invariant 1: exactly-once replies, every status from the valid set.
  std::vector<serve::ResponseStatus> statuses;
  statuses.reserve(futures.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    if (!futures[i].valid() ||
        futures[i].wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
      return fail("request " + std::to_string(i) + " was never answered");
    }
    serve::Response response;
    try {
      response = futures[i].get();
    } catch (const std::future_error&) {
      return fail("request " + std::to_string(i) + " promise was abandoned");
    }
    switch (response.status) {
      case serve::ResponseStatus::kOk:
      case serve::ResponseStatus::kRejected:
      case serve::ResponseStatus::kTimeout:
      case serve::ResponseStatus::kInternalError:
        break;
      default:
        return fail("request " + std::to_string(i) + " got invalid status " +
                    std::string(serve::to_string(response.status)));
    }
    statuses.push_back(response.status);
  }

  // Invariant 2: counter conservation after quiesce (shutdown untouched —
  // the service has not been stopped).
  const serve::MetricsSnapshot m = service.metrics();
  if (m.submitted != m.batched_requests + m.timeouts + m.rejected_full) {
    std::ostringstream out;
    out << "counter conservation violated: submitted=" << m.submitted
        << " batched=" << m.batched_requests << " timeouts=" << m.timeouts
        << " rejected=" << m.rejected_full;
    return fail(out.str());
  }
  if (m.shutdown != 0) return fail("spurious shutdown answers");

  // Invariants 3+4: disarm, then the survivor must match a fault-free
  // replay of exactly the kOk mutations, bit for bit and epoch included
  // (a kOk answer promises the mutation was fully applied; anything else
  // promises it was not applied at all).
  injector.set_armed(false);

  serve::ServiceConfig ref_config = config;
  ref_config.fault_hook = {};
  serve::PlacementService reference(ref_config);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    if (statuses[i] != serve::ResponseStatus::kOk) continue;
    if (mutation_of[i] == static_cast<std::size_t>(-1)) continue;
    const Mutation& mutation = mutations[mutation_of[i]];
    if (mutation.is_add) {
      reference.apply_add(mutation.users);
    } else {
      reference.apply_remove(mutation.ids);
    }
  }

  const serve::PlacementView survivor = service.placement();
  const serve::PlacementView replay = reference.placement();
  if (service.population() != reference.population()) {
    return fail("population diverged from fault-free replay");
  }
  if (survivor.epoch != replay.epoch) {
    std::ostringstream out;
    out << "epoch diverged: survivor=" << survivor.epoch
        << " replay=" << replay.epoch;
    return fail(out.str());
  }
  if (survivor.objective != replay.objective) {
    std::ostringstream out;
    out.precision(17);
    out << "objective diverged: survivor=" << survivor.objective
        << " replay=" << replay.objective;
    return fail(out.str());
  }
  if (!same_centers(survivor.solution.centers, replay.solution.centers)) {
    return fail("centers diverged from fault-free replay");
  }

  result.faults_fired = total_fired(injector);
  return result;
}

FaultPlan ls_plan_for_seed(std::uint64_t seed) {
  rnd::Pcg64 rng(seed ^ kPlanStream);
  FaultPlan plan;
  plan.seed = seed;
  // The eval site is consulted once per delta evaluation — thousands of
  // times per polish — so the per-consult probability must sit orders of
  // magnitude below the serve sites to leave some polishes un-aborted
  // (the sweep needs both "abort keeps the seed" and "polish survives"
  // coverage on most seeds).
  plan.with(core::kFaultLsEvalThrow, 5e-4 * rng.next_double());
  // Spatial faults stay armed too: the polish borrows the carried index,
  // and dropping/corrupting it must remain output-invisible.
  plan.with(serve::kFaultSpatialAllocFail, 0.25 * rng.next_double());
  plan.with(serve::kFaultSpatialCorrupt, 0.25 * rng.next_double());
  return plan;
}

ChaosResult run_ls_chaos(const LsChaosOptions& options) {
  ChaosResult result;
  result.seed = options.seed;
  auto fail = [&](const std::string& what) {
    result.ok = false;
    result.message = describe(options.seed, what);
    return result;
  };

  Injector injector(ls_plan_for_seed(options.seed));

  // Force the coverage grid on (see run_serve_chaos) so the borrowed-index
  // path of the polish and the spatial.* sites are actually exercised.
  const core::kernels::ScopedIndexMode index_mode(
      core::kernels::IndexMode::kGrid);

  serve::ServiceConfig config;
  config.dim = 2;
  config.k = 4;
  config.radius = 0.3;
  config.solver = serve::SolverTier::kLs;
  // Every re-solve is a full sharded solve + polish: the placement is then
  // a pure function of store content + row order, which makes the
  // fault-free replay below comparable bit-for-bit.
  config.full_solve_churn_fraction = 0.0;
  config.max_batch = 16;
  config.fault_hook = injector.hook();
  serve::PlacementService service(config);

  struct Mutation {
    bool is_add = false;
    std::vector<serve::UserRecord> users;
    std::vector<std::uint64_t> ids;
  };
  std::vector<Mutation> mutations;
  std::vector<std::size_t> mutation_of;
  std::vector<std::future<serve::Response>> futures;

  rnd::Pcg64 rng(options.seed ^ kWorkloadStream);
  std::uint64_t next_id = 1;
  std::vector<std::uint64_t> live;

  auto submit = [&](serve::Request request, Mutation mutation) {
    request.deadline = std::chrono::steady_clock::now() + milliseconds(5000);
    const bool is_mutation = !mutation.users.empty() || !mutation.ids.empty();
    mutations.push_back(std::move(mutation));
    mutation_of.push_back(is_mutation ? mutations.size() - 1
                                      : static_cast<std::size_t>(-1));
    futures.push_back(service.submit(std::move(request)));
    ++result.requests;
  };

  for (std::size_t op = 0; op < options.operations; ++op) {
    const std::uint64_t kind = rng.next_below(10);
    if (kind < 6 || live.empty()) {  // add 1..4 users
      std::vector<serve::UserRecord> batch;
      const std::size_t count = 1 + rng.next_below(4);
      for (std::size_t j = 0; j < count; ++j) {
        const std::uint64_t id = next_id++;
        live.push_back(id);
        batch.push_back(make_user(id, rng));
      }
      Mutation mutation;
      mutation.is_add = true;
      mutation.users = batch;
      submit(serve::Request::add_users(std::move(batch)), std::move(mutation));
    } else if (kind < 8) {  // remove 1..2 live ids
      std::vector<std::uint64_t> ids;
      const std::size_t count = 1 + rng.next_below(2);
      for (std::size_t j = 0; j < count && !live.empty(); ++j) {
        const std::size_t at = rng.next_below(live.size());
        ids.push_back(live[at]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
      }
      Mutation mutation;
      mutation.ids = ids;
      submit(serve::Request::remove_users(std::move(ids)),
             std::move(mutation));
    } else if (kind < 9) {
      submit(serve::Request::query_placement(), {});
    } else {
      submit(serve::Request::evaluate(make_probe(rng)), {});
    }
    if (rng.next_below(3) == 0) {
      while (service.pump() > 0) {
      }
    }
  }
  while (service.pump() > 0) {
  }
  if (service.queue_depth() != 0) return fail("queue did not drain");

  result.faults_fired = total_fired(injector);

  // Survival + convergence need one clean re-solve: the last solve under
  // fire may have kept its unpolished seed, which is valid but not what
  // the fault-free replay produces. Disarm, apply one more known
  // mutation, and require the final solve to polish cleanly.
  injector.set_armed(false);
  {
    rnd::Pcg64 tail_rng(options.seed ^ kWorkloadStream ^ 0x5157ull);
    Mutation mutation;
    mutation.is_add = true;
    mutation.users = {make_user(next_id++, tail_rng)};
    std::vector<serve::UserRecord> batch = mutation.users;
    submit(serve::Request::add_users(std::move(batch)), std::move(mutation));
    while (service.pump() > 0) {
    }
  }

  // Invariant 1: exactly-once replies, every status from the valid set
  // (ls.eval_throw must never surface as a failed request — an aborted
  // polish still answers kOk with the seed placement).
  std::vector<serve::ResponseStatus> statuses;
  statuses.reserve(futures.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    if (!futures[i].valid() ||
        futures[i].wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
      return fail("request " + std::to_string(i) + " was never answered");
    }
    serve::Response response;
    try {
      response = futures[i].get();
    } catch (const std::future_error&) {
      return fail("request " + std::to_string(i) + " promise was abandoned");
    }
    switch (response.status) {
      case serve::ResponseStatus::kOk:
      case serve::ResponseStatus::kRejected:
      case serve::ResponseStatus::kTimeout:
      case serve::ResponseStatus::kInternalError:
        break;
      default:
        return fail("request " + std::to_string(i) + " got invalid status " +
                    std::string(serve::to_string(response.status)));
    }
    statuses.push_back(response.status);
  }
  if (statuses.back() != serve::ResponseStatus::kOk) {
    return fail("post-disarm mutation did not answer kOk");
  }

  // Invariant 2: counter conservation after quiesce.
  const serve::MetricsSnapshot m = service.metrics();
  if (m.submitted != m.batched_requests + m.timeouts + m.rejected_full) {
    std::ostringstream out;
    out << "counter conservation violated: submitted=" << m.submitted
        << " batched=" << m.batched_requests << " timeouts=" << m.timeouts
        << " rejected=" << m.rejected_full;
    return fail(out.str());
  }

  // Invariants 3+4: the survivor must match a fault-free kLs replay of the
  // kOk mutations bit for bit, and that replay must sit at or above the
  // kLazy placement for the same store content (polish never hurts).
  serve::ServiceConfig ls_config = config;
  ls_config.fault_hook = {};
  serve::PlacementService ls_reference(ls_config);
  serve::ServiceConfig lazy_config = ls_config;
  lazy_config.solver = serve::SolverTier::kLazy;
  serve::PlacementService lazy_reference(lazy_config);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    if (statuses[i] != serve::ResponseStatus::kOk) continue;
    if (mutation_of[i] == static_cast<std::size_t>(-1)) continue;
    const Mutation& mutation = mutations[mutation_of[i]];
    if (mutation.is_add) {
      ls_reference.apply_add(mutation.users);
      lazy_reference.apply_add(mutation.users);
    } else {
      ls_reference.apply_remove(mutation.ids);
      lazy_reference.apply_remove(mutation.ids);
    }
  }

  const serve::PlacementView survivor = service.placement();
  const serve::PlacementView replay = ls_reference.placement();
  const serve::PlacementView lazy = lazy_reference.placement();
  if (service.population() != ls_reference.population()) {
    return fail("population diverged from fault-free replay");
  }
  if (survivor.epoch != replay.epoch) {
    std::ostringstream out;
    out << "epoch diverged: survivor=" << survivor.epoch
        << " replay=" << replay.epoch;
    return fail(out.str());
  }
  if (survivor.objective != replay.objective) {
    std::ostringstream out;
    out.precision(17);
    out << "objective diverged: survivor=" << survivor.objective
        << " replay=" << replay.objective;
    return fail(out.str());
  }
  if (!same_centers(survivor.solution.centers, replay.solution.centers)) {
    return fail("centers diverged from fault-free replay");
  }
  if (replay.objective < lazy.objective) {
    std::ostringstream out;
    out.precision(17);
    out << "polish hurt the placement: ls=" << replay.objective
        << " lazy=" << lazy.objective;
    return fail(out.str());
  }

  return result;
}

ChaosResult run_net_chaos(const NetChaosOptions& options) {
  ChaosResult result;
  result.seed = options.seed;
  auto fail = [&](const std::string& what) {
    result.ok = false;
    result.message = describe(options.seed, what);
    return result;
  };

  const std::size_t loops = options.loops == 0 ? 1 : options.loops;
  Injector injector(net_plan_for_seed(options.seed, loops));
  FaultySocketOps server_ops(injector, std::string(kServerSitePrefix));
  FaultySocketOps client_ops(injector, std::string(kClientSitePrefix));
  // Multi-loop servers get one injector stream per loop so each loop's
  // fault sequence is independent of the others' consult timing.
  std::vector<std::unique_ptr<FaultySocketOps>> loop_ops;
  if (loops > 1) {
    for (std::size_t i = 0; i < loops; ++i) {
      loop_ops.push_back(std::make_unique<FaultySocketOps>(
          injector, server_loop_site_prefix(i)));
    }
  }

  serve::ServiceConfig service_config;
  service_config.dim = 2;
  service_config.k = 3;
  service_config.radius = 0.35;
  service_config.full_solve_churn_fraction = 0.0;  // see run_serve_chaos

  net::NetServerConfig net_config;
  net_config.loops = loops;
  net_config.poll_interval = milliseconds(2);
  // Each injected reset makes the client reconnect, and the dead server
  // side lingers until the next poll pass notices EOF — leave headroom so
  // a reset-heavy schedule does not trip the shed policy mid-run.
  net_config.max_connections = 128;
  net_config.idle_timeout = milliseconds(10000);
  // Generous deadline: injected slow IO must surface as retries, not as
  // spurious kTimeout noise in the conservation accounting.
  net_config.request_deadline = milliseconds(5000);
  net_config.socket_ops = &server_ops;
  for (auto& ops : loop_ops) net_config.loop_socket_ops.push_back(ops.get());

  net::NetServer server(std::move(service_config), net_config);
  server.start();

  net::NetClientConfig client_config;
  client_config.port = server.port();
  client_config.socket_ops = &client_ops;
  client_config.max_attempts = 8;
  client_config.connect_timeout = milliseconds(2000);
  client_config.send_timeout = milliseconds(2000);
  client_config.recv_timeout = milliseconds(2000);
  net::NetClient client(client_config);

  rnd::Pcg64 rng(options.seed ^ kWorkloadStream);
  std::uint64_t next_id = 1;
  std::vector<std::uint64_t> live;
  std::map<std::uint64_t, serve::UserRecord> desired;  // target end state
  std::uint64_t gave_up = 0;

  auto check_status = [&](const net::ResponseFrame& reply) {
    switch (reply.status) {
      case net::WireStatus::kOk:
      case net::WireStatus::kTimeout:
      case net::WireStatus::kRejected:
      case net::WireStatus::kOverloaded:
        return true;
      default:
        return false;  // kBadRequest/kShutdown/kInternalError: we sent
                       // valid requests to a live server
    }
  };

  for (std::size_t op = 0; op < options.operations; ++op) {
    const std::uint64_t kind = rng.next_below(10);
    try {
      net::ResponseFrame reply;
      if (kind < 5 || live.empty()) {
        std::vector<serve::UserRecord> batch;
        const std::size_t count = 1 + rng.next_below(4);
        for (std::size_t j = 0; j < count; ++j) {
          const bool reuse = !live.empty() && rng.next_below(10) < 3;
          const std::uint64_t id =
              reuse ? live[rng.next_below(live.size())] : next_id++;
          if (!reuse) live.push_back(id);
          serve::UserRecord user = make_user(id, rng);
          desired[id] = user;
          batch.push_back(std::move(user));
        }
        reply = client.add_users(std::move(batch));
      } else if (kind < 7) {
        const std::size_t at = rng.next_below(live.size());
        const std::uint64_t id = live[at];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
        desired.erase(id);
        reply = client.remove_users({id});
      } else if (kind < 9) {
        reply = client.query_placement();
      } else {
        reply = client.evaluate(make_probe(rng));
      }
      ++result.requests;
      if (!check_status(reply)) {
        return fail("op " + std::to_string(op) + " got invalid status " +
                    std::string(net::to_string(reply.status)));
      }
    } catch (const net::NetError&) {
      // Transport gave up after max_attempts: legal under injected
      // resets. The op's effect is now ambiguous (applied or not), which
      // is exactly why reconciliation below rebuilds by content.
      ++result.requests;
      ++gave_up;
    }
  }

  // Disarm and reconcile: strip the ambiguous history (remove every id
  // ever used — unknown ids are ignored), then impose the desired end
  // state in one known order. Afterwards the store's content AND row
  // order equal a fresh service fed the same sequence, so the placement
  // must match bit-for-bit. Epochs are excluded by design: lost replies
  // make the server-side mutation count unknowable.
  injector.set_armed(false);
  client.disconnect();

  std::vector<std::uint64_t> all_ids;
  all_ids.reserve(static_cast<std::size_t>(next_id));
  for (std::uint64_t id = 1; id < next_id; ++id) all_ids.push_back(id);
  std::vector<serve::UserRecord> final_users;
  final_users.reserve(desired.size());
  for (const auto& [id, user] : desired) final_users.push_back(user);

  try {
    if (!all_ids.empty()) {
      const net::ResponseFrame removed = client.remove_users(all_ids);
      if (removed.status != net::WireStatus::kOk) {
        return fail("post-disarm remove answered " +
                    std::string(net::to_string(removed.status)));
      }
    }
    if (server.service().population() != 0) {
      return fail("population nonzero after removing every known id");
    }
    if (!final_users.empty()) {
      const net::ResponseFrame added = client.add_users(final_users);
      if (added.status != net::WireStatus::kOk) {
        return fail("post-disarm add answered " +
                    std::string(net::to_string(added.status)));
      }
    }

    const net::ResponseFrame query = client.query_placement();
    if (query.status != net::WireStatus::kOk) {
      return fail("post-disarm query answered " +
                  std::string(net::to_string(query.status)));
    }

    serve::ServiceConfig ref_config = server.service().config();
    serve::PlacementService reference(ref_config);
    if (!final_users.empty()) reference.apply_add(final_users);
    const serve::PlacementView replay = reference.placement();

    if (server.service().population() != reference.population()) {
      return fail("population diverged from content rebuild");
    }
    if (query.objective != replay.objective) {
      std::ostringstream out;
      out.precision(17);
      out << "objective diverged: wire=" << query.objective
          << " rebuild=" << replay.objective << " (gave_up=" << gave_up
          << ")";
      return fail(out.str());
    }
    const geo::PointSet empty(ref_config.dim);
    const geo::PointSet& got =
        query.centers.has_value() ? *query.centers : empty;
    if (!same_centers(got, replay.solution.centers)) {
      return fail("centers diverged from content rebuild");
    }
  } catch (const net::NetError& e) {
    return fail(std::string("transport failed after disarm: ") + e.what());
  }

  // Conservation on the serve side: every request the batcher accepted is
  // accounted for. (All client calls have completed, so the queue has
  // fully quiesced.)
  const serve::MetricsSnapshot m = server.service().metrics();
  if (m.submitted != m.batched_requests + m.timeouts + m.rejected_full) {
    std::ostringstream out;
    out << "counter conservation violated: submitted=" << m.submitted
        << " batched=" << m.batched_requests << " timeouts=" << m.timeouts
        << " rejected=" << m.rejected_full;
    return fail(out.str());
  }

  server.stop();
  result.faults_fired = total_fired(injector);
  return result;
}

FaultPlan wal_plan_for_seed(std::uint64_t seed) {
  rnd::Pcg64 rng(seed ^ kPlanStream);
  FaultPlan plan;
  plan.seed = seed;
  // short_write is retry-shaped (the write_all loop consults again for
  // every 1-byte continuation), so it can run hot. torn_record and
  // fsync_fail poison the writer — they stay rare so most schedules get a
  // meaningful working prefix before the log dies, while the sweep as a
  // whole still covers "log dies early" seeds.
  plan.with(serve::kFaultWalShortWrite,
            kMaxRetryProbability * rng.next_double());
  plan.with(serve::kFaultWalTornRecord, 0.015 * rng.next_double());
  plan.with(serve::kFaultWalFsyncFail, 0.02 * rng.next_double());
  return plan;
}

ChaosResult run_wal_chaos(const WalChaosOptions& options) {
  ChaosResult result;
  result.seed = options.seed;
  auto fail = [&](const std::string& what) {
    result.ok = false;
    result.message = describe(options.seed, what);
    return result;
  };

  Injector injector(wal_plan_for_seed(options.seed));
  wal::MemFileOps mem;
  FaultyFileOps faulty(injector, mem);

  wal::WalConfig wal_config;
  wal_config.dir = "wal";
  // Group commit keeps the invariant exact: append returning ⟺ the
  // record's bytes are in the (crash-preserving) file ⟺ the mutation was
  // applied. Under kAlways a failed append fsync can leave a durable
  // record the service never applied — legal (the op was never acked)
  // but not bitwise-comparable to the live store.
  wal_config.fsync = wal::FsyncPolicy::kGroupCommit;
  wal_config.snapshot_every_ops = 24;  // checkpoints + prunes mid-run
  wal_config.file_ops = &faulty;
  wal::WalWriter writer(wal_config);

  serve::ServiceConfig config;
  config.dim = 2;
  config.k = 4;
  config.radius = 0.3;
  config.full_solve_churn_fraction = 0.0;  // see run_serve_chaos
  config.wal = &writer;
  serve::PlacementService service(config);

  // Every mutation whose effect reached the store, in order, with the
  // store epoch it left behind — the replay source for the torn-tail
  // probe. "Reached the store" is read off the epoch, not the exception:
  // a commit/checkpoint failure throws WalError *after* the apply.
  struct Mutation {
    bool is_add = false;
    std::vector<serve::UserRecord> users;
    std::vector<std::uint64_t> ids;
    std::uint64_t epoch_after = 0;
  };
  std::vector<Mutation> applied;

  rnd::Pcg64 rng(options.seed ^ kWorkloadStream);
  std::uint64_t next_id = 1;
  std::vector<std::uint64_t> live;

  for (std::size_t op = 0; op < options.operations; ++op) {
    const std::uint64_t kind = rng.next_below(10);
    if (kind >= 9) {  // keep the solve path in the loop; wal-neutral
      (void)service.placement();
      continue;
    }
    Mutation mutation;
    if (kind < 6 || live.empty()) {  // add 1..4 users (some upserts)
      const std::size_t count = 1 + rng.next_below(4);
      for (std::size_t j = 0; j < count; ++j) {
        const bool reuse = !live.empty() && rng.next_below(10) < 3;
        const std::uint64_t id =
            reuse ? live[rng.next_below(live.size())] : next_id++;
        if (!reuse) live.push_back(id);
        mutation.users.push_back(make_user(id, rng));
      }
      mutation.is_add = true;
    } else {  // remove 1..2 ids (sometimes unknown)
      const std::size_t count = 1 + rng.next_below(2);
      for (std::size_t j = 0; j < count; ++j) {
        if (rng.next_below(10) < 8) {
          const std::size_t at = rng.next_below(live.size());
          mutation.ids.push_back(live[at]);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
        } else {
          mutation.ids.push_back(0xDEAD0000ull + rng.next_below(64));
        }
        if (live.empty()) break;
      }
    }

    const std::uint64_t before = service.epoch();
    try {
      if (mutation.is_add) {
        service.apply_add(mutation.users);
      } else {
        service.apply_remove(mutation.ids);
      }
    } catch (const wal::WalError&) {
      // Poisoned/failed log: append failures leave the store untouched,
      // commit failures leave it mutated — the epoch probe below tells
      // the two apart. Either way the run continues against the dead log.
    }
    ++result.requests;
    if (service.epoch() != before) {
      mutation.epoch_after = service.epoch();
      applied.push_back(std::move(mutation));
    }
  }

  // Crash: clone the filesystem exactly as the writer left it. MemFileOps
  // preserves every byte a write() reported written — the documented
  // crash model — so this is "power loss now".
  const wal::WalSnapshot live_image = service.wal_snapshot();
  const std::unique_ptr<wal::MemFileOps> crashed = mem.clone();
  const wal::RecoveryResult recovered =
      wal::recover(wal_config.dir, 2, *crashed);

  // Invariant 1: recovery is clean — injected faults only ever tear the
  // segment *tail* (the first failed write poisons the writer, so nothing
  // is appended after a tear).
  if (!recovered.clean) {
    return fail("recovery not clean: " + recovered.detail);
  }
  // Invariant 2: recovered store == pre-crash store, bitwise (rows, row
  // order, epoch — snapshot_digest covers all of it).
  if (recovered.store.epoch != live_image.epoch) {
    std::ostringstream out;
    out << "recovered epoch " << recovered.store.epoch
        << " != live epoch " << live_image.epoch;
    return fail(out.str());
  }
  if (wal::snapshot_digest(recovered.store) !=
      wal::snapshot_digest(live_image)) {
    return fail("recovered store diverged bitwise from the live store");
  }

  // Invariant 3 (torn-tail probe): chop a random tail off the newest
  // segment of a second clone. Recovery must land cleanly on an exact
  // earlier op boundary — replaying the applied-op prefix up to that
  // epoch must reproduce the recovered store bitwise.
  const std::unique_ptr<wal::MemFileOps> torn = mem.clone();
  const auto names = torn->list(wal_config.dir);
  if (!names.has_value()) return fail("wal dir unreadable in torn probe");
  std::uint64_t newest_epoch = 0;
  bool have_segment = false;
  for (const std::string& name : *names) {
    const auto seg_epoch = wal::parse_file_epoch(name, "wal-", ".mmpl");
    if (seg_epoch.has_value() && (!have_segment || *seg_epoch > newest_epoch)) {
      newest_epoch = *seg_epoch;
      have_segment = true;
    }
  }
  if (have_segment) {
    const std::string seg =
        wal_config.dir + "/" + wal::segment_file_name(newest_epoch);
    const auto seg_bytes = torn->file_bytes(seg);
    if (seg_bytes.has_value() && !seg_bytes->empty()) {
      const std::size_t chop =
          1 + rng.next_below(std::min<std::size_t>(seg_bytes->size(), 512));
      (void)torn->truncate_tail(seg, chop);
      const wal::RecoveryResult prefix =
          wal::recover(wal_config.dir, 2, *torn);
      if (!prefix.clean) {
        return fail("torn-tail recovery not clean: " + prefix.detail);
      }
      serve::ServiceConfig ref_config = config;
      ref_config.wal = nullptr;
      serve::PlacementService reference(ref_config);
      for (const Mutation& mutation : applied) {
        if (reference.epoch() >= prefix.store.epoch) break;
        if (mutation.is_add) {
          reference.apply_add(mutation.users);
        } else {
          reference.apply_remove(mutation.ids);
        }
      }
      if (reference.epoch() != prefix.store.epoch) {
        std::ostringstream out;
        out << "torn-tail recovery stopped off any op boundary: epoch "
            << prefix.store.epoch;
        return fail(out.str());
      }
      if (wal::snapshot_digest(reference.wal_snapshot()) !=
          wal::snapshot_digest(prefix.store)) {
        return fail("torn-tail recovery diverged from the op-prefix replay");
      }
    }
  }

  result.faults_fired = total_fired(injector);
  return result;
}

FaultPlan store_shard_plan_for_seed(std::uint64_t seed) {
  rnd::Pcg64 rng(seed ^ kPlanStream);
  FaultPlan plan;
  plan.seed = seed;
  // short_write is retry-shaped (records still complete), fsync_fail and
  // the barrier site poison the writer set at commit time — *after* the
  // batch applied and its records' bytes were written, so recovered ==
  // live stays exact. torn_record is deliberately absent: a record torn
  // mid-append in a multi-shard batch leaves durable-but-unapplied
  // records in the shards appended before the tear (the documented
  // unacked-may-survive case), which is legal but not bitwise-comparable
  // to the live store. The single-shard wal sweep owns tearing coverage.
  plan.with(serve::kFaultWalShortWrite,
            kMaxRetryProbability * rng.next_double());
  plan.with(serve::kFaultWalFsyncFail, 0.02 * rng.next_double());
  plan.with(serve::kFaultWalBarrierFsyncFail, 0.02 * rng.next_double());
  // Fires before any append or mutation: the batch fails as a unit and
  // the run keeps going with nothing to reconcile.
  plan.with(serve::kFaultStoreShardAllocFail, 0.10 * rng.next_double());
  return plan;
}

ChaosResult run_store_shard_chaos(const StoreShardChaosOptions& options) {
  ChaosResult result;
  result.seed = options.seed;
  auto fail = [&](const std::string& what) {
    result.ok = false;
    result.message = describe(options.seed, what);
    return result;
  };

  Injector injector(store_shard_plan_for_seed(options.seed));
  wal::MemFileOps mem;
  FaultyFileOps faulty(injector, mem);

  wal::WalConfig base;
  base.dir = "wal";
  base.fsync = wal::FsyncPolicy::kGroupCommit;  // see run_wal_chaos
  base.snapshot_every_ops = 24;  // per-shard checkpoints + prunes mid-run
  base.file_ops = &faulty;
  wal::ShardedWal coordinator(base, options.shards, wal::ShardedRecovery{},
                              injector.hook());

  serve::ServiceConfig config;
  config.dim = 2;
  config.k = 4;
  config.radius = 0.3;
  config.full_solve_churn_fraction = 0.0;  // see run_serve_chaos
  config.store_shards = options.shards;
  config.shard_wal = &coordinator;
  config.fault_hook = injector.hook();
  serve::PlacementService service(config);

  rnd::Pcg64 rng(options.seed ^ kWorkloadStream);
  std::uint64_t next_id = 1;
  std::vector<std::uint64_t> live;

  for (std::size_t op = 0; op < options.operations; ++op) {
    const std::uint64_t kind = rng.next_below(10);
    if (kind >= 9) {  // keep the merged sharded solve in the loop
      (void)service.placement();
      continue;
    }
    std::vector<serve::UserRecord> users;
    std::vector<std::uint64_t> ids;
    if (kind < 6 || live.empty()) {  // add 1..4 users (some are region moves)
      const std::size_t count = 1 + rng.next_below(4);
      for (std::size_t j = 0; j < count; ++j) {
        const bool reuse = !live.empty() && rng.next_below(10) < 3;
        const std::uint64_t id =
            reuse ? live[rng.next_below(live.size())] : next_id++;
        if (!reuse) live.push_back(id);
        users.push_back(make_user(id, rng));  // fresh coords: often a move
      }
    } else {  // remove 1..2 ids (sometimes unknown)
      const std::size_t count = 1 + rng.next_below(2);
      for (std::size_t j = 0; j < count; ++j) {
        if (rng.next_below(10) < 8) {
          const std::size_t at = rng.next_below(live.size());
          ids.push_back(live[at]);
          live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
        } else {
          ids.push_back(0xDEAD0000ull + rng.next_below(64));
        }
        if (live.empty()) break;
      }
    }
    try {
      if (!users.empty()) {
        service.apply_add(users);
      } else {
        service.apply_remove(ids);
      }
    } catch (const wal::WalError&) {
      // Barrier/fsync death: the batch applied, its records are durable,
      // the log set is poisoned. Later appends refuse with the store
      // untouched, so the run just coasts on a dead log.
    } catch (const std::bad_alloc&) {
      // store.shard.alloc_fail: fired before any append or mutation.
    }
    ++result.requests;
  }

  // Crash: clone the filesystem as-is, recover every shard independently.
  const wal::WalSnapshot live_image = service.wal_snapshot();
  const std::unique_ptr<wal::MemFileOps> crashed = mem.clone();
  const wal::ShardedRecovery recovered =
      wal::recover_sharded(base.dir, options.shards, 2, *crashed);

  for (std::size_t s = 0; s < options.shards; ++s) {
    const wal::RecoveryResult& part = recovered.shards[s];
    if (!part.clean) {
      std::ostringstream out;
      out << "shard " << s << " recovery not clean: " << part.detail;
      return fail(out.str());
    }
    // Per-shard bitwise invariant: same rows, same order, same epoch.
    const wal::WalSnapshot live_shard = service.shard_wal_snapshot(s);
    if (wal::snapshot_digest(part.store) != wal::snapshot_digest(live_shard)) {
      std::ostringstream out;
      out << "shard " << s << " diverged bitwise from the live store shard";
      return fail(out.str());
    }
  }
  // Global invariant: the per-shard epochs sum back to the live epoch...
  if (recovered.global_epoch != live_image.epoch) {
    std::ostringstream out;
    out << "recovered global epoch " << recovered.global_epoch
        << " != live epoch " << live_image.epoch;
    return fail(out.str());
  }
  // ...and a service restored from the recovery is the same service: the
  // global snapshot and the merged solve both match bit for bit.
  serve::ServiceConfig resumed_config = config;
  resumed_config.shard_wal = nullptr;
  resumed_config.fault_hook = {};
  serve::PlacementService resumed(resumed_config);
  resumed.restore_sharded(recovered);
  if (wal::snapshot_digest(resumed.wal_snapshot()) !=
      wal::snapshot_digest(live_image)) {
    return fail("restored service diverged bitwise from the live store");
  }
  if (!service.wal_snapshot().ids.empty()) {
    const serve::PlacementView want = service.placement();
    const serve::PlacementView got = resumed.placement();
    if (got.objective != want.objective ||
        !same_centers(got.solution.centers, want.solution.centers)) {
      return fail("restored service solved to a different placement");
    }
  }

  result.faults_fired = total_fired(injector);
  return result;
}

}  // namespace mmph::chaos
