#pragma once

/// \file fault.hpp
/// \brief Test-only fault-injection seam of the serve stack.
///
/// The serve pipeline has failure paths (queue full, deadline passed,
/// solver throw, allocation failure) that real traffic exercises rarely
/// and non-deterministically. A FaultHook lets a test make them fire on
/// demand: the service and batcher consult the hook at *named fault
/// sites*, and a hook that returns true makes that site fail exactly as
/// the organic failure would — same status, same counters, same promise
/// discipline. Production leaves the hook empty (null std::function), so
/// every site collapses to one cheap bool check.
///
/// The deterministic, seed-driven implementation of the hook lives in
/// mmph::chaos (serve must not depend on it — the dependency points the
/// other way).

#include <functional>
#include <string_view>

namespace mmph::serve {

/// Called at a named fault site; returning true forces that site to fail
/// this invocation. Implementations must be thread-safe: sites fire from
/// producer threads (push) and the consumer thread (pump) concurrently.
using FaultHook = std::function<bool(std::string_view site)>;

// --- fault-site catalog (serve layer) --------------------------------------
// Every name is <layer>.<failure>; the chaos harness keys its schedule and
// its report on these exact strings.

/// RequestBatcher::push treats the queue as full -> kRejected.
inline constexpr std::string_view kFaultQueueFull = "serve.queue_full";
/// RequestBatcher::pop_batch treats the request's deadline as passed ->
/// kTimeout, request dropped from the batch (mutation NOT applied).
inline constexpr std::string_view kFaultDeadlineSkew = "serve.deadline_skew";
/// PlacementService query/evaluate processing throws mid-batch ->
/// kInternalError for that request, rest of the batch unaffected.
inline constexpr std::string_view kFaultSolverThrow = "serve.solver_throw";
/// PlacementService add-users processing throws std::bad_alloc *before*
/// any store mutation -> kInternalError, store untouched.
inline constexpr std::string_view kFaultAllocFail = "serve.alloc_fail";

// --- fault-site catalog (spatial index maintenance) -------------------------
// The carried coverage index is an accelerator, never a source of truth:
// both sites must leave responses and placements bit-identical to a
// fault-free run (the index is dropped/rebuilt; the store and WAL are
// untouched). Chaos tests pin that invariant.

/// The incremental index update mirroring a store mutation throws
/// std::bad_alloc -> the mutation still succeeds; the index is marked
/// dirty and rebuilt at the next solve.
inline constexpr std::string_view kFaultSpatialAllocFail = "spatial.alloc_fail";
/// The carried index is treated as corrupt at solve time (verify() failure
/// stand-in) -> rebuilt from the store snapshot before solving.
inline constexpr std::string_view kFaultSpatialCorrupt = "spatial.corrupt";

// --- fault-site catalog (wal / replication layers) -------------------------
// Consulted by chaos::FaultyFileOps (wal.*) and net::ReplicaAgent
// (replica.*); listed here because fault.hpp is the one site registry.

/// FileOps::write caps the write at one byte (short write; the WAL's
/// write_all loop must finish the record regardless).
inline constexpr std::string_view kFaultWalShortWrite = "wal.short_write";
/// FileOps::write persists roughly half the buffer, then fails -> a torn
/// record at the segment tail; recovery must drop exactly that record.
inline constexpr std::string_view kFaultWalTornRecord = "wal.torn_record";
/// FileOps::fsync fails with EIO -> the writer poisons itself; already
/// written bytes stay valid for replay.
inline constexpr std::string_view kFaultWalFsyncFail = "wal.fsync_fail";
/// ReplicaAgent delays applying a received stream frame, inflating the
/// observable mmph_repl_lag_ops gauge.
inline constexpr std::string_view kFaultReplicaLag = "replica.lag";

// --- fault-site catalog (ls polish tier) ------------------------------------
// "ls.eval_throw" — a local-search delta evaluation throws mid-polish. The
// constant lives in mmph/core/local_search.hpp (core::kFaultLsEvalThrow):
// the engine sits below serve and consults the hook itself;
// PlacementService forwards its fault_hook into core::polish on the kLs
// tier. Effect: the solve keeps the polish's seed placement (responses
// stay valid; LsStats::aborted is set).

// --- fault-site catalog (region-sharded store) ------------------------------
// Fired by PlacementService when the store runs with --store-shards > 1.

/// Routing a batch of mutations to store shards throws std::bad_alloc
/// *before* any WAL append or store mutation -> kInternalError for the
/// batch's mutations, store and log untouched.
inline constexpr std::string_view kFaultStoreShardAllocFail =
    "store.shard.alloc_fail";
/// The cross-shard group-commit barrier (ShardedWal::commit_all) fails at
/// one shard's fsync -> every shard's writer is poisoned (poison-all
/// discipline: a half-committed barrier must not ack), mutations answer
/// kInternalError.
inline constexpr std::string_view kFaultWalBarrierFsyncFail =
    "wal.barrier.fsync_fail";

}  // namespace mmph::serve
