#include "mmph/net/replica.hpp"

#include <algorithm>
#include <utility>

#include "mmph/support/assert.hpp"
#include "mmph/wal/record.hpp"
#include "mmph/wal/snapshot.hpp"

namespace mmph::net {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kRecvChunk = 64 * 1024;

}  // namespace

ReplicaAgent::ReplicaAgent(serve::PlacementService& service,
                           ReplicaAgentConfig config)
    : service_(service), config_(std::move(config)) {
  MMPH_REQUIRE(config_.port != 0, "ReplicaAgent: primary port must be set");
}

ReplicaAgent::~ReplicaAgent() { stop(); }

void ReplicaAgent::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  service_.set_read_only(true);
  thread_ = std::thread([this] { run(); });
}

void ReplicaAgent::stop() {
  running_.store(false);
  if (thread_.joinable()) thread_.join();
  connected_.store(false);
}

std::uint64_t ReplicaAgent::lag_ops() const {
  const std::uint64_t primary = primary_epoch();
  const std::uint64_t local = service_.epoch();
  return primary > local ? primary - local : 0;
}

void ReplicaAgent::publish_lag() {
  service_.set_repl_lag(static_cast<double>(lag_ops()));
}

void ReplicaAgent::run() {
  while (running_.load(std::memory_order_relaxed)) {
    try {
      session();
    } catch (...) {
      // NetError, StateError, anything else: the session is over; fall
      // through to the backoff and resubscribe from the current epoch.
    }
    connected_.store(false);
    if (!running_.load(std::memory_order_relaxed)) break;
    resyncs_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(config_.retry_backoff);
  }
}

void ReplicaAgent::session() {
  Socket sock = tcp_connect(config_.host, config_.port,
                            config_.connect_timeout);  // throws NetError

  RequestFrame subscribe;
  subscribe.type = FrameType::kReplSubscribe;
  subscribe.request_id = 1;
  subscribe.have_epoch = service_.epoch();
  std::vector<std::uint8_t> bytes;
  encode_request(subscribe, bytes);
  if (!send_all(sock, bytes.data(), bytes.size(),
                Clock::now() + config_.send_timeout, ops())) {
    return;
  }
  connected_.store(true);
  snapshot_buf_.clear();
  snapshot_open_ = false;

  FrameDecoder decoder;
  std::uint8_t chunk[kRecvChunk];
  while (running_.load(std::memory_order_relaxed)) {
    const IoResult r = recv_some(sock, chunk, sizeof(chunk),
                                 Clock::now() + config_.poll_interval, ops());
    if (r.status == IoStatus::kClosed || r.status == IoStatus::kError) return;
    if (r.bytes == 0) continue;  // poll window elapsed; re-check stop flag
    decoder.feed(chunk, r.bytes);
    for (;;) {
      FrameDecoder::Result decoded = decoder.next();
      if (decoded.status == DecodeStatus::kNeedMoreData) break;
      if (decoded.status != DecodeStatus::kOk) return;  // poisoned stream
      if (decoded.is_response) {
        // The only response on this stream is a rejection of the
        // subscribe itself (e.g. the primary runs without a WAL).
        if (decoded.response.status != WireStatus::kOk) return;
        continue;
      }
      if (!decoded.is_repl) return;  // primary speaking the wrong direction
      if (config_.fault_hook && config_.fault_hook(serve::kFaultReplicaLag)) {
        // Injected ingest stall: the frame sits unapplied while the
        // primary's epoch is already known — observable replication lag.
        primary_epoch_.store(decoded.repl.epoch, std::memory_order_relaxed);
        publish_lag();
        std::this_thread::sleep_for(config_.retry_backoff);
      }
      if (!ingest(decoded.repl)) return;
    }
  }
}

bool ReplicaAgent::ingest(const ReplFrame& frame) {
  primary_epoch_.store(std::max(primary_epoch(), frame.epoch),
                       std::memory_order_relaxed);
  publish_lag();

  if (frame.type == FrameType::kReplSnapshot) {
    if ((frame.flags & kReplChunkFirst) != 0) {
      snapshot_buf_.clear();
      snapshot_open_ = true;
    }
    if (!snapshot_open_) return false;  // chunk without a first chunk
    snapshot_buf_.insert(snapshot_buf_.end(), frame.blob.begin(),
                         frame.blob.end());
    if ((frame.flags & kReplChunkLast) == 0) return true;
    snapshot_open_ = false;
    wal::WalSnapshot snapshot;
    if (wal::decode_snapshot(snapshot_buf_.data(), snapshot_buf_.size(),
                             snapshot) != wal::RecordDecodeStatus::kOk ||
        snapshot.epoch != frame.epoch) {
      return false;
    }
    service_.restore_from(snapshot);  // throws on dim mismatch -> session ends
    installs_.fetch_add(1, std::memory_order_relaxed);
    publish_lag();
    return true;
  }

  // kReplOps: a run of encoded WAL records, each individually guarded.
  std::size_t offset = 0;
  while (offset < frame.blob.size()) {
    const wal::RecordDecodeResult decoded = wal::decode_record(
        frame.blob.data() + offset, frame.blob.size() - offset);
    if (decoded.status != wal::RecordDecodeStatus::kOk) return false;
    offset += decoded.consumed;
    if (decoded.record.epoch <= service_.epoch()) continue;  // replayed tail
    // StateError on a chain break. The service publishes the lag itself,
    // in the critical section that advances the epoch.
    service_.apply_replicated(decoded.record, primary_epoch());
    records_applied_.fetch_add(1, std::memory_order_relaxed);
  }
  if (offset != frame.blob.size()) return false;
  publish_lag();  // a frame of replayed records only applies nothing
  return true;
}

}  // namespace mmph::net
