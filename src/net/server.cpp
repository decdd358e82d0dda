#include "mmph/net/server.hpp"

#include <cerrno>
#include <chrono>
#include <deque>
#include <future>
#include <utility>

#include "mmph/support/assert.hpp"
#include "mmph/trace/span.hpp"

namespace mmph::net {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kReadChunk = 64 * 1024;
/// Stop queueing replication frames once a subscriber's unsent backlog
/// reaches this; the stream resumes as the socket drains.
constexpr std::size_t kReplWatermark = 1u << 20;
/// Encoded frames append to the newest write segment until it reaches
/// this size, then a fresh segment starts; flush() gathers segments into
/// one writev. Bounds both per-segment reallocation and iovec count.
constexpr std::size_t kSegmentBytes = 64 * 1024;
/// Max segments gathered into a single writev call.
constexpr int kMaxIov = 64;
/// Max events drained per epoll_wait.
constexpr int kMaxEpollEvents = 128;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The log a replica can follow: the service's, when it has one shard
/// (either input). A multi-shard log has no single epoch chain to stream.
wal::ShardedWal* replication_log(const serve::PlacementService& service) {
  wal::ShardedWal* log = service.shard_wal();
  return log != nullptr && log->shard_count() == 1 ? log : nullptr;
}

}  // namespace

/// Per-connection state: decoder for inbound bytes, a segmented write
/// queue for outbound frames (flushed with writev), the requests decoded
/// this iteration but not yet submitted (staged), and the FIFO of
/// submitted-but-unanswered requests (responses are encoded in arrival
/// order, so a pipelining client can match replies to requests
/// positionally as well as by id).
struct NetServer::Connection {
  Socket sock;
  std::size_t owner = 0;  ///< index of the one loop allowed to touch this
  FrameDecoder decoder;

  /// Outbound frames, as a queue of buffer segments. out_offset is the
  /// sent prefix of the front segment; out_bytes is the total unsent.
  std::deque<std::vector<std::uint8_t>> outq;
  std::size_t out_offset = 0;
  std::size_t out_bytes = 0;
  bool want_write = false;  ///< EPOLLOUT currently registered

  std::uint32_t ready = 0;  ///< epoll events gathered this iteration

  Clock::time_point opened = Clock::now();
  Clock::time_point last_activity = Clock::now();
  bool close_after_flush = false;

  /// Requests decoded in the current read pass, awaiting one
  /// submit_batch. Parallel arrays (request payload / wire bookkeeping).
  std::vector<serve::Request> staged;
  struct StagedMeta {
    std::uint64_t request_id = 0;
    Clock::time_point arrival;
  };
  std::vector<StagedMeta> staged_meta;

  struct Pending {
    std::uint64_t request_id = 0;
    Clock::time_point arrival;
    std::future<serve::Response> future;
  };
  std::deque<Pending> pending;

  // Replication subscriber state (set by kReplSubscribe; see
  // pump_replication). A non-empty repl_snapshot means a full-store
  // image is mid-stream and ops are held back until it finishes.
  bool repl_subscriber = false;
  std::uint64_t repl_request_id = 0;
  std::uint64_t repl_epoch = 0;  ///< subscriber is synced through here
  std::uint64_t repl_snapshot_epoch = 0;
  std::vector<std::uint8_t> repl_snapshot;  ///< encoded snapshot file
  std::size_t repl_snapshot_offset = 0;

  [[nodiscard]] std::size_t unsent() const noexcept { return out_bytes; }

  /// Segment new frames append to (starts a fresh one at the size cap).
  [[nodiscard]] std::vector<std::uint8_t>& out_tail() {
    if (outq.empty() || outq.back().size() >= kSegmentBytes) {
      outq.emplace_back();
    }
    return outq.back();
  }

  /// Encodes one outbound frame onto the write queue, keeping the
  /// unsent-byte count exact.
  void queue(const ResponseFrame& reply) {
    std::vector<std::uint8_t>& seg = out_tail();
    const std::size_t before = seg.size();
    encode_response(reply, seg);
    out_bytes += seg.size() - before;
  }
  void queue(const ReplFrame& frame) {
    std::vector<std::uint8_t>& seg = out_tail();
    const std::size_t before = seg.size();
    encode_repl(frame, seg);
    out_bytes += seg.size() - before;
  }
};

/// One event loop: epoll + wakeup eventfd, its own listener, and the
/// connections it exclusively owns. Everything on this struct is touched
/// by the owning thread only (the wakeup is signalled by stop()).
struct NetServer::Loop {
  std::size_t index = 0;
  SocketOps* ops = nullptr;
  NetMetrics::Loop* met = nullptr;
  EpollSet epoll;
  Wakeup wakeup;
  Socket listener;
  std::vector<std::unique_ptr<Connection>> conns;
  std::thread thread;
};

NetServer::NetServer(serve::ServiceConfig service_config,
                     NetServerConfig net_config, par::ThreadPool* pool)
    : config_(std::move(net_config)),
      service_(std::make_unique<serve::PlacementService>(service_config,
                                                         pool)),
      metrics_(config_.loops) {
  MMPH_REQUIRE(config_.loops >= 1 && config_.loops <= 64,
               "NetServer: loops must be in [1, 64]");
  MMPH_REQUIRE(config_.max_connections >= 1,
               "NetServer: max_connections must be >= 1");
  MMPH_REQUIRE(config_.poll_interval.count() >= 1,
               "NetServer: poll_interval must be >= 1ms");
  MMPH_REQUIRE(config_.loop_socket_ops.empty() ||
                   config_.loop_socket_ops.size() == config_.loops,
               "NetServer: loop_socket_ops must be empty or one per loop");
  for (SocketOps* ops : config_.loop_socket_ops) {
    MMPH_REQUIRE(ops != nullptr, "NetServer: loop_socket_ops entries must "
                                 "be non-null");
  }
}

NetServer::~NetServer() { stop(); }

void NetServer::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  try {
    SocketOps& shared_ops = config_.socket_ops != nullptr
                                ? *config_.socket_ops
                                : SocketOps::system();
    loops_.clear();
    for (std::size_t i = 0; i < config_.loops; ++i) {
      auto loop = std::make_unique<Loop>();
      loop->index = i;
      loop->ops = config_.loop_socket_ops.empty()
                      ? &shared_ops
                      : config_.loop_socket_ops[i];
      loop->met = &metrics_.loop(i);
      loops_.push_back(std::move(loop));
    }
    // Every loop binds its own listener on the shared port (one loop: one
    // plain listener). The first bind resolves an ephemeral request
    // (port 0) to a concrete port the remaining listeners then join.
    const bool reuse_port = loops_.size() > 1;
    std::uint16_t port = config_.port;
    for (auto& loop : loops_) {
      auto [sock, bound] = tcp_listen(config_.host, port, 64, reuse_port);
      loop->listener = std::move(sock);
      port = bound;
    }
    port_ = port;
  } catch (...) {
    loops_.clear();
    running_.store(false);
    throw;
  }
  // Last-resort barrier: anything the per-connection try/catch in
  // run_loop() cannot attribute to one peer (accept, pump, epoll
  // bookkeeping) stops the server instead of std::terminate'ing the
  // whole process.
  for (auto& loop : loops_) {
    Loop* raw = loop.get();
    raw->thread = std::thread([this, raw] {
      try {
        run_loop(*raw);
      } catch (...) {
        running_.store(false);
      }
    });
  }
}

void NetServer::stop() {
  running_.store(false);
  for (auto& loop : loops_) {
    if (loop) loop->wakeup.signal();
  }
  for (auto& loop : loops_) {
    if (loop && loop->thread.joinable()) loop->thread.join();
  }
  for (auto& loop : loops_) {
    if (!loop) continue;
    while (!loop->conns.empty()) {
      close_connection(*loop, loop->conns.size() - 1);
    }
    loop->listener.close();
  }
  loops_.clear();
  open_total_.store(0);
  service_->stop();
}

void NetServer::run_loop(Loop& loop) {
  loop.epoll.add(loop.wakeup.fd(), EPOLLIN, &loop.wakeup);
  loop.epoll.add(loop.listener.fd(), EPOLLIN, &loop);
  epoll_event events[kMaxEpollEvents];
  while (running_.load(std::memory_order_relaxed)) {
    const int n =
        loop.epoll.wait(events, kMaxEpollEvents,
                        static_cast<int>(config_.poll_interval.count()));
    bool listener_ready = false;
    for (int e = 0; e < n; ++e) {
      void* tag = events[e].data.ptr;
      if (tag == &loop) {
        listener_ready = true;
      } else if (tag == &loop.wakeup) {
        loop.wakeup.drain();
      } else {
        static_cast<Connection*>(tag)->ready |= events[e].events;
      }
    }
    if (listener_ready) accept_pending(loop);

    // Read + decode + submit, in fixed (reverse) connection order —
    // epoll readiness only selects *which* connections are visited, never
    // the order, which is what keeps --loops 1 replay deterministic.
    // Walking backwards means close_connection's swap-remove cannot skip
    // an element (the element swapped into a closed slot is always one
    // this pass has already visited or a just-accepted connection with no
    // readiness yet).
    for (std::size_t i = loop.conns.size(); i-- > 0;) {
      Connection& conn = *loop.conns[i];
      const std::uint32_t ready = conn.ready;
      conn.ready = 0;
      if ((ready & (EPOLLERR | EPOLLHUP)) != 0 && (ready & EPOLLIN) == 0) {
        close_connection(loop, i);
        continue;
      }
      // A connection already condemned to close-after-flush only waits
      // for its backlog to drain; nothing further is read from it.
      if (conn.close_after_flush) continue;
      if ((ready & EPOLLIN) == 0) continue;
      bool alive;
      try {
        alive = read_and_stage(loop, conn);
        if (alive) submit_staged(loop, conn);
      } catch (...) {
        // Exception barrier: a throw here (encode limits, allocation)
        // is this connection's problem, not the server's.
        metrics_.count_closed_error();
        alive = false;
      }
      if (!alive) close_connection(loop, i);
    }

    // One synchronous drain answers everything decoded this iteration
    // (and anything a direct in-process submit() queued meanwhile). With
    // several loops the drain serializes on the service internally; each
    // loop's replies come back through the per-request futures no matter
    // which loop's drain processed them.
    while (service_->pump(std::chrono::milliseconds(0)) > 0) {
    }

    const auto now = Clock::now();
    for (std::size_t i = loop.conns.size(); i-- > 0;) {
      Connection& conn = *loop.conns[i];
      bool alive = true;
      try {
        collect_replies(loop, conn);
        pump_replication(loop, conn);
        if (conn.unsent() > 0) alive = flush(loop, conn);
      } catch (...) {
        // future.get() rethrow or encode failure: same barrier as above.
        metrics_.count_closed_error();
        alive = false;
      }
      if (!alive) {
        close_connection(loop, i);
        continue;
      }
      if (conn.close_after_flush && conn.unsent() == 0) {
        metrics_.count_closed_error();
        close_connection(loop, i);
        continue;
      }
      // Idle or wedged (peer neither sends frames nor drains replies
      // for a whole idle window): reclaim the slot. Replication
      // subscribers are exempt — a caught-up replica is legitimately
      // silent for as long as the primary has no churn.
      if (!conn.repl_subscriber && conn.pending.empty() &&
          now - conn.last_activity > config_.idle_timeout) {
        metrics_.count_closed_idle();
        close_connection(loop, i);
        continue;
      }
      // Re-derive write interest: EPOLLOUT is registered only while a
      // backlog exists, so an idle socket costs no spurious wakeups.
      const bool want = conn.unsent() > 0;
      if (want != conn.want_write) {
        conn.want_write = want;
        loop.epoll.mod(conn.sock.fd(),
                       EPOLLIN | (want ? EPOLLOUT : 0u), &conn);
      }
    }
  }
}

void NetServer::accept_pending(Loop& loop) {
  for (;;) {
    Socket sock = tcp_accept(loop.listener, *loop.ops);
    if (!sock.valid()) return;
    if (open_total_.load(std::memory_order_relaxed) >=
        config_.max_connections) {
      // Shed load explicitly: tell the peer why before closing. The
      // write is best-effort — a peer that cannot take ~50 bytes
      // immediately learns of the shed via the close instead.
      ResponseFrame shed;
      shed.status = WireStatus::kOverloaded;
      std::vector<std::uint8_t> bytes;
      encode_response(shed, bytes);
      (void)sock_write(sock, bytes.data(), bytes.size(), *loop.ops);
      metrics_.count_rejected_overloaded();
      continue;
    }
    open_total_.fetch_add(1, std::memory_order_relaxed);
    adopt_connection(loop, std::move(sock));
  }
}

void NetServer::adopt_connection(Loop& loop, Socket sock) {
  auto conn = std::make_unique<Connection>();
  conn->sock = std::move(sock);
  conn->owner = loop.index;
  loop.epoll.add(conn->sock.fd(), EPOLLIN, conn.get());
  loop.conns.push_back(std::move(conn));
  loop.met->accepted.add();
  loop.met->open_connections.set(static_cast<double>(loop.conns.size()));
  metrics_.set_open_connections(
      open_total_.load(std::memory_order_relaxed));
}

void NetServer::assert_owner(const Loop& loop, Connection& conn) {
  MMPH_ASSERT(conn.owner == loop.index,
              "connection touched by a loop that does not own it");
  loop.met->ownership_checks.add();
}

bool NetServer::read_and_stage(Loop& loop, Connection& conn) {
  assert_owner(loop, conn);
  std::uint8_t chunk[kReadChunk];
  for (;;) {
    const IoResult r = sock_read(conn.sock, chunk, sizeof(chunk), *loop.ops);
    if (r.status == IoStatus::kWouldBlock) break;
    if (r.status != IoStatus::kOk) return false;  // EOF or error
    loop.met->bytes_in.add(r.bytes);
    conn.decoder.feed(chunk, r.bytes);
    if (conn.decoder.buffered() + conn.unsent() > config_.max_buffered_bytes) {
      return false;  // peer floods faster than we drain: drop it
    }
  }

  const auto arrival = Clock::now();
  for (;;) {
    FrameDecoder::Result decoded = conn.decoder.next();
    if (decoded.status == DecodeStatus::kNeedMoreData) break;
    if (decoded.status != DecodeStatus::kOk || decoded.is_response ||
        decoded.is_repl) {
      // Typed decode failure (or a peer speaking the wrong direction):
      // answer kBadRequest so the peer can log *why*, then drop the
      // connection — after a framing error the stream is garbage.
      metrics_.count_frame_error();
      ResponseFrame reply;
      reply.request_id = decoded.request_id;
      reply.status = WireStatus::kBadRequest;
      conn.queue(reply);
      loop.met->frames_out.add();
      conn.close_after_flush = true;
      break;
    }

    loop.met->frames_in.add();
    conn.last_activity = arrival;
    RequestFrame& frame = decoded.request;

    // Stats scrapes are answered inline from the registries, not routed
    // through the service queue: they must work even when the queue is
    // saturated (that is exactly when an operator scrapes). Like the
    // dim-mismatch reply below, this jumps the per-connection FIFO ahead
    // of still-pending service requests.
    if (frame.type == FrameType::kStats) {
      ResponseFrame reply;
      reply.request_id = frame.request_id;
      reply.status = WireStatus::kOk;
      reply.epoch = service_->epoch();
      reply.stats = render_stats();
      conn.queue(reply);
      loop.met->frames_out.add();
      loop.met->requests.add();
      continue;
    }

    // A replica announcing itself. Answered inline like kStats; from the
    // next pump_replication pass this connection receives the stream.
    // Servers without a one-shard log have no chain to stream: kBadRequest.
    if (frame.type == FrameType::kReplSubscribe) {
      loop.met->requests.add();
      if (replication_log(*service_) == nullptr) {
        ResponseFrame reply;
        reply.request_id = frame.request_id;
        reply.status = WireStatus::kBadRequest;
        reply.epoch = service_->epoch();
        conn.queue(reply);
        loop.met->frames_out.add();
        continue;
      }
      conn.repl_subscriber = true;
      conn.repl_request_id = frame.request_id;
      conn.repl_epoch = frame.have_epoch;
      conn.repl_snapshot.clear();
      conn.repl_snapshot_offset = 0;
      continue;
    }

    // Well-framed but unusable for *this* service: wrong interest-space
    // dimension. Answered per-request; the connection stays healthy.
    const std::size_t service_dim = service_->config().dim;
    const bool dim_mismatch =
        (frame.type == FrameType::kAddUsers &&
         frame.users.front().interest.size() != service_dim) ||
        (frame.type == FrameType::kEvaluate && frame.centers.has_value() &&
         frame.centers->dim() != service_dim);
    if (dim_mismatch) {
      ResponseFrame reply;
      reply.request_id = frame.request_id;
      reply.status = WireStatus::kBadRequest;
      reply.epoch = service_->epoch();
      conn.queue(reply);
      loop.met->frames_out.add();
      continue;
    }

    serve::Request request;
    switch (frame.type) {
      case FrameType::kAddUsers:
        request = serve::Request::add_users(std::move(frame.users));
        break;
      case FrameType::kRemoveUsers:
        request = serve::Request::remove_users(std::move(frame.ids));
        break;
      case FrameType::kQueryPlacement:
        request = serve::Request::query_placement();
        break;
      case FrameType::kEvaluate:
        request = serve::Request::evaluate(std::move(*frame.centers));
        break;
      case FrameType::kResponse:
      case FrameType::kStats:
      case FrameType::kReplSubscribe:
      case FrameType::kReplSnapshot:
      case FrameType::kReplOps:
        continue;  // unreachable: all handled or rejected above
    }
    request.deadline = arrival + config_.request_deadline;
    // Loop-affinity probe: the owning loop's index rides along so the
    // sharded store can report how often a loop's requests land on "its"
    // shard (hint % shards) — a routing-quality signal, never a router.
    request.shard_hint = static_cast<std::uint32_t>(loop.index);

    conn.staged.push_back(std::move(request));
    conn.staged_meta.push_back({frame.request_id, arrival});
    loop.met->requests.add();
  }
  return true;
}

void NetServer::submit_staged(Loop& loop, Connection& conn) {
  if (conn.staged.empty()) return;
  assert_owner(loop, conn);
  std::vector<std::future<serve::Response>> futures =
      service_->submit_batch(std::move(conn.staged));
  conn.staged.clear();
  for (std::size_t i = 0; i < futures.size(); ++i) {
    Connection::Pending pending;
    pending.request_id = conn.staged_meta[i].request_id;
    pending.arrival = conn.staged_meta[i].arrival;
    pending.future = std::move(futures[i]);
    conn.pending.push_back(std::move(pending));
  }
  conn.staged_meta.clear();
}

void NetServer::collect_replies(Loop& loop, Connection& conn) {
  assert_owner(loop, conn);
  while (!conn.pending.empty()) {
    Connection::Pending& head = conn.pending.front();
    if (head.future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      break;  // keep per-connection response order
    }
    const serve::Response response = head.future.get();

    ResponseFrame reply;
    reply.request_id = head.request_id;
    reply.status = to_wire_status(response.status);
    reply.epoch = response.epoch;
    reply.objective = response.objective;
    if (response.solution.has_value()) {
      reply.centers = response.solution->centers;
    }
    conn.queue(reply);
    loop.met->frames_out.add();
    if (reply.status == WireStatus::kTimeout) metrics_.count_timeout();

    const double latency = seconds_since(head.arrival);
    metrics_.record_latency(latency);
    trace::SpanCollector::global().record("net.request", latency);
    conn.pending.pop_front();
  }
}

void NetServer::pump_replication(Loop& loop, Connection& conn) {
  if (!conn.repl_subscriber) return;
  const wal::ShardedWal* log = replication_log(*service_);
  if (log == nullptr) return;
  while (conn.unsent() < kReplWatermark) {
    if (!conn.repl_snapshot.empty()) {
      // A full-store image is mid-stream: next chunk.
      const std::size_t remaining =
          conn.repl_snapshot.size() - conn.repl_snapshot_offset;
      const std::size_t n = std::min(remaining, kReplChunkBytes);
      ReplFrame chunk;
      chunk.type = FrameType::kReplSnapshot;
      chunk.request_id = conn.repl_request_id;
      chunk.epoch = conn.repl_snapshot_epoch;
      chunk.flags = static_cast<std::uint8_t>(
          (conn.repl_snapshot_offset == 0 ? kReplChunkFirst : 0) |
          (n == remaining ? kReplChunkLast : 0));
      const auto* base = conn.repl_snapshot.data() + conn.repl_snapshot_offset;
      chunk.blob.assign(base, base + n);
      conn.queue(chunk);
      loop.met->frames_out.add();
      conn.repl_snapshot_offset += n;
      if (n == remaining) {
        conn.repl_snapshot.clear();
        conn.repl_snapshot_offset = 0;
        conn.repl_epoch = conn.repl_snapshot_epoch;
      }
      continue;
    }
    wal::WalWriter::TailResult tail =
        log->tail_since(0, conn.repl_epoch, kReplChunkBytes);
    if (!tail.covered) {
      // The subscriber is behind the retained log window; restart it
      // from a full snapshot of the live store.
      wal::WalSnapshot snap = service_->wal_snapshot();
      conn.repl_snapshot_epoch = snap.epoch;
      conn.repl_snapshot.clear();
      conn.repl_snapshot_offset = 0;
      encode_snapshot(snap, conn.repl_snapshot);
      continue;
    }
    if (tail.count == 0) break;  // subscriber is caught up
    ReplFrame ops;
    ops.type = FrameType::kReplOps;
    ops.request_id = conn.repl_request_id;
    ops.epoch = tail.last_epoch;
    ops.count = tail.count;
    ops.blob = std::move(tail.bytes);
    // encode_repl throws past the event loop's per-connection barrier if
    // one record alone exceeds the frame cap (possible only through the
    // direct API with a batch far above net::kMaxBatchCount) — the
    // subscriber is dropped rather than sent a torn stream.
    conn.queue(ops);
    loop.met->frames_out.add();
    conn.repl_epoch = tail.last_epoch;
  }
}

bool NetServer::flush(Loop& loop, Connection& conn) {
  assert_owner(loop, conn);
  while (conn.unsent() > 0) {
    iovec iov[kMaxIov];
    int iovcnt = 0;
    std::size_t offset = conn.out_offset;
    for (auto& seg : conn.outq) {
      if (iovcnt == kMaxIov) break;
      iov[iovcnt].iov_base = seg.data() + offset;
      iov[iovcnt].iov_len = seg.size() - offset;
      ++iovcnt;
      offset = 0;
    }
    const IoResult r = sock_writev(conn.sock, iov, iovcnt, *loop.ops);
    if (r.status == IoStatus::kWouldBlock) break;
    if (r.status != IoStatus::kOk) return false;
    if (r.bytes == 0) break;  // defensive: no progress, treat as blocked
    loop.met->bytes_out.add(r.bytes);
    conn.out_bytes -= r.bytes;
    std::size_t left = r.bytes;
    while (left > 0) {
      std::vector<std::uint8_t>& front = conn.outq.front();
      const std::size_t avail = front.size() - conn.out_offset;
      if (left >= avail) {
        left -= avail;
        conn.outq.pop_front();
        conn.out_offset = 0;
      } else {
        conn.out_offset += left;
        left = 0;
      }
    }
  }
  return true;
}

std::string NetServer::render_stats() const {
  obs::Registry registry;
  metrics_.describe(registry);
  service_->describe_metrics(registry);
  trace::SpanCollector::global().describe(registry);
  return registry.exposition_text();
}

void NetServer::close_connection(Loop& loop, std::size_t index) {
  Connection& conn = *loop.conns[index];
  trace::SpanCollector::global().record("net.conn",
                                        seconds_since(conn.opened));
  loop.epoll.del(conn.sock.fd());
  // Frames decoded before the failure were already accepted into the
  // pipeline: submit them even though their replies have nowhere to go
  // (mutations must not silently vanish once counted as requests).
  if (!conn.staged.empty()) {
    std::vector<std::future<serve::Response>> dropped =
        service_->submit_batch(std::move(conn.staged));
    conn.staged.clear();
    conn.staged_meta.clear();
  }
  open_total_.fetch_sub(1, std::memory_order_relaxed);
  // Gauge first: a peer observes EOF the moment the fd below is closed,
  // and may read the metrics snapshot before this thread runs again.
  metrics_.set_open_connections(
      open_total_.load(std::memory_order_relaxed));
  loop.met->open_connections.set(static_cast<double>(loop.conns.size() - 1));
  loop.conns[index] = std::move(loop.conns.back());
  loop.conns.pop_back();
}

}  // namespace mmph::net
