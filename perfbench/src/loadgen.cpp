#include "loadgen.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <ctime>
#include <stdexcept>

namespace perfbench {

namespace net = mmph::net;

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Loopback::Conn {
  struct Entry {
    std::uint64_t id = 0;
    Op op = Op::kQuery;
    std::uint64_t tag = 0;
    std::int64_t due_ns = 0;
    std::int64_t send_ns = 0;
    std::uint64_t end = 0;  ///< stream offset one past the frame's bytes
  };

  net::Socket sock;
  bool alive = true;
  std::vector<std::uint8_t> out;  ///< unsent bytes are [out_off, size)
  std::size_t out_off = 0;
  std::uint64_t queued = 0;   ///< stream bytes handed to send()
  std::uint64_t written = 0;  ///< stream bytes the kernel accepted
  net::FrameDecoder decoder;
  /// In-flight FIFO as a ring indexed by absolute sequence numbers:
  /// [head, tail) are in flight, [stamp, tail) have no send time yet.
  std::vector<Entry> ring;
  std::uint64_t head = 0;
  std::uint64_t tail = 0;
  std::uint64_t stamp = 0;

  [[nodiscard]] Entry& at(std::uint64_t seq) {
    return ring[static_cast<std::size_t>(seq % ring.size())];
  }
  [[nodiscard]] std::size_t inflight() const {
    return static_cast<std::size_t>(tail - head);
  }
};

Loopback::Loopback(std::uint16_t port, std::size_t connections,
                   std::size_t fifo_capacity, SideSpans* spans, Sink sink)
    : spans_(spans), sink_(std::move(sink)), recv_buf_(256 * 1024) {
  for (std::size_t c = 0; c < connections; ++c) {
    auto conn = std::make_unique<Conn>();
    conn->sock =
        net::tcp_connect("127.0.0.1", port, std::chrono::milliseconds(5000));
    const int flags = ::fcntl(conn->sock.fd(), F_GETFL, 0);
    if (flags < 0 ||
        ::fcntl(conn->sock.fd(), F_SETFL, flags | O_NONBLOCK) < 0) {
      throw std::runtime_error("loadgen: cannot make socket nonblocking");
    }
    conn->out.reserve(1u << 20);
    conn->ring.resize(fifo_capacity);
    conns_.push_back(std::move(conn));
  }
}

Loopback::~Loopback() = default;

void Loopback::send(std::size_t c, net::RequestFrame& frame, Op op,
                    std::uint64_t tag, std::int64_t due_ns) {
  Conn& conn = *conns_.at(c);
  if (!conn.alive) {
    Reply lost{op, tag, due_ns, now_ns(), now_ns(), nullptr};
    sink_(lost);
    return;
  }
  if (conn.inflight() == conn.ring.size()) {
    throw std::logic_error("loadgen: in-flight window exceeds FIFO capacity");
  }
  frame.request_id = next_id_++;
  const std::int64_t t0 = spans_->enabled ? now_ns() : 0;
  const std::size_t before = conn.out.size();
  net::encode_request(frame, conn.out);
  if (spans_->enabled) {
    spans_->codec_ns += now_ns() - t0;
    ++spans_->frames;
  }
  conn.queued += conn.out.size() - before;
  Conn::Entry& entry = conn.at(conn.tail++);
  entry = Conn::Entry{frame.request_id, op, tag, due_ns, 0, conn.queued};
  flush(conn);
}

void Loopback::flush(Conn& conn) {
  while (conn.alive && conn.out_off < conn.out.size()) {
    const std::int64_t t = now_ns();
    const ssize_t n =
        ::send(conn.sock.fd(), conn.out.data() + conn.out_off,
               conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (spans_->enabled) {
      ++spans_->syscalls;
      spans_->syscall_ns += now_ns() - t;
    }
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      conn.written += static_cast<std::uint64_t>(n);
      while (conn.stamp < conn.tail && conn.at(conn.stamp).end <= conn.written) {
        conn.at(conn.stamp++).send_ns = t;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    fail_connection(conn);
    return;
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  }
}

void Loopback::read_ready(Conn& conn) {
  while (conn.alive) {
    const std::int64_t t = now_ns();
    const ssize_t n =
        ::recv(conn.sock.fd(), recv_buf_.data(), recv_buf_.size(), 0);
    const std::int64_t recv_ns = now_ns();
    if (spans_->enabled) {
      ++spans_->syscalls;
      spans_->syscall_ns += recv_ns - t;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) {
      fail_connection(conn);
      return;
    }
    conn.decoder.feed(recv_buf_.data(), static_cast<std::size_t>(n));
    if (spans_->enabled) spans_->codec_ns += now_ns() - recv_ns;
    for (;;) {
      const std::int64_t d0 = spans_->enabled ? now_ns() : 0;
      net::FrameDecoder::Result result = conn.decoder.next();
      if (spans_->enabled) spans_->codec_ns += now_ns() - d0;
      if (result.status == net::DecodeStatus::kNeedMoreData) break;
      if (result.status != net::DecodeStatus::kOk || !result.is_response) {
        fail_connection(conn);
        return;
      }
      if (spans_->enabled) ++spans_->frames;
      if (conn.inflight() == 0 ||
          conn.at(conn.head).id != result.response.request_id) {
        ++mismatched_;
        fail_connection(conn);
        return;
      }
      const Conn::Entry entry = conn.at(conn.head++);
      sink_(Reply{entry.op, entry.tag, entry.due_ns, entry.send_ns, recv_ns,
                  &result.response});
    }
  }
}

void Loopback::fail_connection(Conn& conn) {
  if (!conn.alive) return;
  conn.alive = false;
  conn.sock.close();
  const std::int64_t t = now_ns();
  while (conn.head < conn.tail) {
    const Conn::Entry entry = conn.at(conn.head++);
    sink_(Reply{entry.op, entry.tag, entry.due_ns, entry.send_ns, t,
                nullptr});
  }
  conn.stamp = conn.tail;
}

std::size_t Loopback::poll(std::int64_t deadline_ns) {
  pollfd fds[16];
  Conn* owners[16];
  nfds_t count = 0;
  for (auto& conn : conns_) {
    if (!conn->alive || count == 16) continue;
    short events = POLLIN;
    if (conn->out_off < conn->out.size()) events |= POLLOUT;
    fds[count] = pollfd{conn->sock.fd(), events, 0};
    owners[count++] = conn.get();
  }
  const std::int64_t wait = deadline_ns - now_ns();
  timespec ts{};
  if (wait > 0) {
    ts.tv_sec = static_cast<time_t>(wait / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(wait % 1'000'000'000);
  }
  const int ready = ::ppoll(fds, count, &ts, nullptr);
  if (ready <= 0) return 0;
  std::size_t handled = 0;
  for (nfds_t i = 0; i < count; ++i) {
    if (fds[i].revents == 0) continue;
    Conn& conn = *owners[i];
    if ((fds[i].revents & POLLOUT) != 0) flush(conn);
    if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
      const std::uint64_t before = conn.head;
      read_ready(conn);
      handled += static_cast<std::size_t>(conn.head - before);
    }
  }
  return handled;
}

bool Loopback::drain(std::int64_t deadline_ns, std::size_t c) {
  for (;;) {
    const std::size_t left = c == npos ? inflight_total() : inflight(c);
    if (left == 0) return true;
    if (now_ns() >= deadline_ns) return false;
    poll(deadline_ns);
  }
}

std::size_t Loopback::inflight(std::size_t c) const {
  return conns_.at(c)->inflight();
}

std::size_t Loopback::inflight_total() const {
  std::size_t total = 0;
  for (const auto& conn : conns_) total += conn->inflight();
  return total;
}

}  // namespace perfbench
