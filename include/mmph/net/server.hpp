#pragma once

/// \file server.hpp
/// \brief Multi-shard epoll TCP server fronting a PlacementService.
///
/// The network boundary the ROADMAP's "serve millions of users" goal
/// needs: clients speak the wire protocol of wire.hpp over plain TCP, the
/// server decodes frames into serve::Requests, pushes them through the
/// service's bounded RequestBatcher, and writes the replies back.
///
///   sockets ──epoll──▶ read buffers ──FrameDecoder──▶ serve::Request
///                                                         │ submit_batch
///   sockets ◀─writev── frame queue ◀─encode─ Response ◀───┘ pump
///
/// The front end is `loops` independent event loops (epoll + eventfd
/// wakeup each). Every connection is owned by exactly one loop for its
/// whole life: only the owning loop reads, decodes, encodes, or flushes
/// it, so the per-connection path takes no locks — the only shared-state
/// crossings are the service funnel (its own mutex), the atomic metrics,
/// and the global open-connection count. Ownership is asserted (and
/// counted, mmph_net_ownership_checks_total) on every touch.
///
/// Accept distribution (NetServerConfig::accept_mode):
///   - kReusePort: every loop binds its own SO_REUSEPORT listener on the
///     shared port; the kernel spreads incoming connections. Zero accept
///     coordination — the default for loops > 1.
///   - kHandoff: loop 0 owns the single listener and hands accepted fds
///     to loops round-robin via a mailbox + eventfd wakeup. Deterministic
///     distribution, and the portable fallback where SO_REUSEPORT load
///     balancing is unavailable.
///   - kAuto: kReusePort when loops > 1, single listener otherwise.
///
/// With loops == 1 the schedule is exactly the historical single-threaded
/// loop — wait, accept, read + decode + submit in connection order, one
/// synchronous pump drain, then encode + flush — so requests decoded in
/// one iteration are submitted in arrival order and answered after a
/// single pump pass, and a workload replayed over loopback yields
/// bit-identical placements to the same workload applied in-process (the
/// chaos harness and the loopback goldens pin this). With loops > 1 each
/// loop keeps that deterministic schedule over its own connections;
/// cross-loop interleaving through the shared service follows real
/// arrival order.
///
/// Defenses, each surfaced as an explicit status instead of UB or silent
/// drops:
///   - malformed/hostile frames  -> typed decode error, kBadRequest
///     reply, connection dropped (framing is untrustworthy afterwards);
///   - too many connections      -> accept, reply kOverloaded, close;
///   - per-request deadline      -> batcher answers kTimeout, mutation
///     is NOT applied;
///   - idle connections          -> closed after idle_timeout;
///   - slow readers              -> bounded write buffers; a peer whose
///     backlog exceeds max_buffered_bytes is dropped.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mmph/net/epoll.hpp"
#include "mmph/net/metrics.hpp"
#include "mmph/net/socket.hpp"
#include "mmph/net/wire.hpp"
#include "mmph/parallel/thread_pool.hpp"
#include "mmph/serve/placement_service.hpp"

namespace mmph::net {

/// How accepted connections are distributed across event loops.
enum class AcceptMode {
  kAuto,       ///< kReusePort when loops > 1, plain single listener else
  kReusePort,  ///< one SO_REUSEPORT listener per loop, kernel-balanced
  kHandoff,    ///< loop 0 accepts, hands fds round-robin (deterministic)
};

struct NetServerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = kernel-assigned ephemeral port
  /// Event loops (epoll shards). 1 reproduces the historical
  /// single-threaded deterministic schedule exactly.
  std::size_t loops = 1;
  /// Accept distribution policy; see AcceptMode.
  AcceptMode accept_mode = AcceptMode::kAuto;
  /// Connections beyond this (across all loops) are shed with
  /// kOverloaded.
  std::size_t max_connections = 64;
  /// A connection with no complete frame for this long is closed.
  std::chrono::milliseconds idle_timeout{30000};
  /// Deadline stamped on every request at decode time; exceeded while
  /// queued -> kTimeout.
  std::chrono::milliseconds request_deadline{1000};
  /// epoll_wait timeout — bounds stop() latency and idle-scan period.
  std::chrono::milliseconds poll_interval{20};
  /// Per-connection read+write backlog cap (slow-reader defense).
  std::size_t max_buffered_bytes = 8u << 20;
  /// Syscall hook table every read/write/accept goes through; null
  /// selects SocketOps::system(). Tests point this at a fault injector
  /// (mmph::chaos::FaultySocketOps). Must outlive the server.
  SocketOps* socket_ops = nullptr;
  /// Per-loop override of socket_ops (chaos: one injector stream per
  /// loop). Either empty or exactly `loops` entries, each non-null and
  /// outliving the server; when empty every loop shares socket_ops.
  std::vector<SocketOps*> loop_socket_ops;
};

class NetServer {
 public:
  /// Builds the owned PlacementService from \p service_config; \p pool
  /// follows the same convention as PlacementService (null = global).
  NetServer(serve::ServiceConfig service_config, NetServerConfig net_config,
            par::ThreadPool* pool = nullptr);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds + listens (throws NetError on failure) and starts the event
  /// loop threads. port() is valid once start() returns.
  void start();
  /// Stops the loops, closes every connection, and stops the service.
  /// Idempotent; also run by the destructor.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_relaxed);
  }
  /// Bound listening port (only meaningful after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// Event loops actually running (== config().loops after start()).
  [[nodiscard]] std::size_t loop_count() const noexcept {
    return loops_.size();
  }
  /// Accept mode resolved at start() (kAuto is replaced by the choice).
  [[nodiscard]] AcceptMode accept_mode() const noexcept {
    return resolved_mode_;
  }

  /// The owned service — for tests and in-process callers that want to
  /// compare against the direct API. Synchronous calls are safe while
  /// the server runs (the service serializes internally).
  [[nodiscard]] serve::PlacementService& service() noexcept {
    return *service_;
  }

  [[nodiscard]] NetMetricsSnapshot metrics() const {
    return metrics_.snapshot();
  }
  /// Per-loop traffic slice (accept distribution, throughput skew,
  /// ownership-check coverage). \p loop < loop_count().
  [[nodiscard]] NetLoopSnapshot loop_metrics(std::size_t loop) const {
    return metrics_.loop_snapshot(loop);
  }
  [[nodiscard]] const NetServerConfig& config() const noexcept {
    return config_;
  }

  /// Prometheus-style exposition of one obs::Registry that the net, serve,
  /// WAL and span layers describe their series into — the blob a kStats
  /// request is answered with. Includes the labeled per-loop, per-store-
  /// shard and per-WAL-shard series.
  [[nodiscard]] std::string render_stats() const;

 private:
  struct Connection;
  struct Loop;

  void run_loop(Loop& loop);
  void accept_pending(Loop& loop);
  void adopt_mailbox(Loop& loop);
  void adopt_connection(Loop& loop, Socket sock);
  /// Reads and decodes every complete frame, staging decoded requests on
  /// the connection; returns false when the connection must be dropped.
  [[nodiscard]] bool read_and_stage(Loop& loop, Connection& conn);
  /// Submits one connection's staged requests in one batch.
  void submit_staged(Loop& loop, Connection& conn);
  void collect_replies(Loop& loop, Connection& conn);
  /// Advances a kReplSubscribe subscriber: streams snapshot chunks while
  /// it is behind the WAL's retained window, then kReplOps batches from
  /// the in-memory tail, bounded by a write-buffer watermark.
  void pump_replication(Loop& loop, Connection& conn);
  [[nodiscard]] bool flush(Loop& loop, Connection& conn);
  void close_connection(Loop& loop, std::size_t index);
  void assert_owner(const Loop& loop, Connection& conn);

  NetServerConfig config_;
  std::unique_ptr<serve::PlacementService> service_;
  mutable NetMetrics metrics_;

  std::vector<std::unique_ptr<Loop>> loops_;
  std::uint16_t port_ = 0;
  AcceptMode resolved_mode_ = AcceptMode::kAuto;
  /// Open connections across all loops (shed policy is global).
  std::atomic<std::size_t> open_total_{0};

  std::atomic<bool> running_{false};
};

}  // namespace mmph::net
