#pragma once

/// \file loadgen.hpp
/// \brief Single-threaded loopback load generator for the benchmark.
///
/// One thread drives every client connection through nonblocking sockets
/// and ppoll(), so pacing has nanosecond resolution and the generator's
/// CPU is exactly one thread's RUSAGE_THREAD. Requests are encoded with
/// net::encode_request and replies decoded with net::FrameDecoder — the
/// public wire codec, exactly as any client would use it. Every request
/// is remembered in a per-connection FIFO until its reply arrives; a reply
/// whose id does not match the FIFO head, or a connection that dies with
/// requests in flight, is reported to the caller, so "every request is
/// answered exactly once" is checked per request.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mmph/net/socket.hpp"
#include "mmph/net/wire.hpp"

namespace perfbench {

/// Monotonic clock in nanoseconds (steady_clock).
[[nodiscard]] std::int64_t now_ns() noexcept;

enum class Op : std::uint8_t { kLoad, kQuery, kMutate };

/// Time the generator itself spends in the wire codec and in socket
/// syscalls. Only accumulated while `enabled` (the traced run).
struct SideSpans {
  bool enabled = false;
  std::uint64_t frames = 0;   ///< frames encoded + decoded
  std::int64_t codec_ns = 0;  ///< encode_request + FrameDecoder time
  std::uint64_t syscalls = 0;
  std::int64_t syscall_ns = 0;
};

/// One completed request. `frame` is null when the request was lost
/// (connection died or the reply did not match the FIFO head).
struct Reply {
  Op op = Op::kQuery;
  std::uint64_t tag = 0;  ///< caller value passed to send()
  std::int64_t due_ns = 0;
  std::int64_t send_ns = 0;  ///< just before the write that finished it
  std::int64_t recv_ns = 0;
  const mmph::net::ResponseFrame* frame = nullptr;
};

class Loopback {
 public:
  using Sink = std::function<void(const Reply&)>;

  /// Opens \p connections TCP connections to 127.0.0.1:\p port.
  /// \p fifo_capacity bounds the in-flight requests per connection.
  Loopback(std::uint16_t port, std::size_t connections,
           std::size_t fifo_capacity, SideSpans* spans, Sink sink);
  ~Loopback();

  Loopback(const Loopback&) = delete;
  Loopback& operator=(const Loopback&) = delete;

  /// Encodes \p frame (its request_id is replaced) and writes it to
  /// connection \p c; bytes the socket does not take now are flushed by
  /// poll(). A request sent on a dead connection is reported lost at once.
  void send(std::size_t c, mmph::net::RequestFrame& frame, Op op,
            std::uint64_t tag, std::int64_t due_ns);

  /// Waits for socket activity until \p deadline_ns (returns at once when
  /// it has passed), reads and decodes every complete reply and hands each
  /// to the sink. Returns the number of replies handled.
  std::size_t poll(std::int64_t deadline_ns);

  /// Polls until connection \p c (or every connection when \p c is
  /// npos) has nothing in flight, or \p deadline_ns passes. Returns true
  /// when drained.
  bool drain(std::int64_t deadline_ns, std::size_t c = npos);

  [[nodiscard]] std::size_t inflight(std::size_t c) const;
  [[nodiscard]] std::size_t inflight_total() const;
  /// Replies that did not match their connection's FIFO head.
  [[nodiscard]] std::uint64_t mismatched() const noexcept {
    return mismatched_;
  }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  struct Conn;

  void flush(Conn& conn);
  void read_ready(Conn& conn);
  void fail_connection(Conn& conn);

  std::vector<std::unique_ptr<Conn>> conns_;
  SideSpans* spans_;
  Sink sink_;
  std::uint64_t next_id_ = 1;
  std::uint64_t mismatched_ = 0;
  std::vector<std::uint8_t> recv_buf_;
};

}  // namespace perfbench
