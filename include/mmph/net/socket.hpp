#pragma once

/// \file socket.hpp
/// \brief Thin RAII + error-handling layer over POSIX TCP sockets.
///
/// Everything the server and client need and nothing more: an owning fd
/// wrapper, loopback-friendly listen/connect helpers with explicit
/// timeouts, and nonblocking-IO result codes that distinguish "would
/// block" from "peer gone" so the event loop never has to inspect errno
/// itself. IPv4 only — the serving tier fronts placement shards on
/// private addresses, not the public internet.

#include <sys/types.h>
#include <sys/uio.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "mmph/support/error.hpp"

namespace mmph::net {

/// Syscall hook table the socket layer routes every read / write / accept
/// through. The default implementation forwards to the real syscalls;
/// tests override single hooks to inject short reads, EINTR, ECONNRESET,
/// EAGAIN, or failed accepts deterministically (see mmph::chaos).
///
/// Hooks are errno-shaped: each has the exact return/errno contract of
/// the syscall it replaces, so the retry loops in sock_read/sock_write
/// treat injected faults identically to real ones. One SocketOps instance
/// must only be shared across threads if its implementation is
/// thread-safe (system() is; fault injectors serialize internally).
class SocketOps {
 public:
  virtual ~SocketOps() = default;

  /// ::read(fd, buf, cap) — returns bytes read, 0 on EOF, -1 + errno.
  virtual ssize_t read(int fd, std::uint8_t* buf, std::size_t cap);
  /// ::send(fd, buf, len, MSG_NOSIGNAL) — returns bytes sent, -1 + errno.
  virtual ssize_t write(int fd, const std::uint8_t* buf, std::size_t len);
  /// ::sendmsg(fd, iov..., MSG_NOSIGNAL) — gather-write of \p iovcnt
  /// buffers; returns bytes sent, -1 + errno. The event loops use this to
  /// flush many queued response frames in one syscall.
  virtual ssize_t writev(int fd, const iovec* iov, int iovcnt);
  /// ::accept(listener_fd, nullptr, nullptr) — returns fd or -1 + errno.
  virtual int accept(int listener_fd);

  /// Process-wide passthrough instance (stateless, thread-safe).
  [[nodiscard]] static SocketOps& system() noexcept;
};

/// A socket/system call failed (message carries the errno text).
class NetError : public Error {
 public:
  explicit NetError(const std::string& what) : Error(what) {}
};

/// Move-only owning file descriptor.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Outcome of one nonblocking read/write attempt.
enum class IoStatus {
  kOk,          ///< >= 1 byte moved
  kWouldBlock,  ///< EAGAIN — retry after poll()
  kClosed,      ///< orderly EOF from the peer
  kError,       ///< connection-fatal errno
};

struct IoResult {
  IoStatus status = IoStatus::kOk;
  std::size_t bytes = 0;
};

/// Binds and listens on \p host:\p port (port 0 picks an ephemeral port).
/// Returns the listening socket (nonblocking, SO_REUSEADDR) and the bound
/// port. With \p reuse_port, SO_REUSEPORT is set before bind so several
/// listeners can share one port and the kernel spreads accepts across
/// them (how the multi-loop server spreads connections). \throws
/// NetError on failure.
[[nodiscard]] std::pair<Socket, std::uint16_t> tcp_listen(
    const std::string& host, std::uint16_t port, int backlog = 64,
    bool reuse_port = false);

/// Accepts one pending connection as a nonblocking socket. Returns an
/// invalid Socket when no connection is pending.
[[nodiscard]] Socket tcp_accept(const Socket& listener,
                                SocketOps& ops = SocketOps::system());

/// Connects to \p host:\p port within \p timeout (nonblocking connect +
/// poll). The returned socket is left *blocking*: the client uses poll()
/// per call for its send/recv deadlines. \throws NetError on refusal or
/// timeout.
[[nodiscard]] Socket tcp_connect(const std::string& host, std::uint16_t port,
                                 std::chrono::milliseconds timeout);

/// Nonblocking read into \p buf.
[[nodiscard]] IoResult sock_read(const Socket& sock, std::uint8_t* buf,
                                 std::size_t cap,
                                 SocketOps& ops = SocketOps::system());
/// Nonblocking write from \p buf.
[[nodiscard]] IoResult sock_write(const Socket& sock, const std::uint8_t* buf,
                                  std::size_t len,
                                  SocketOps& ops = SocketOps::system());

/// Nonblocking gather-write of \p iovcnt buffers (writev batching).
[[nodiscard]] IoResult sock_writev(const Socket& sock, const iovec* iov,
                                   int iovcnt,
                                   SocketOps& ops = SocketOps::system());

/// Blocking send of the whole buffer, polling for writability between
/// chunks; false once \p deadline passes or the connection dies.
[[nodiscard]] bool send_all(const Socket& sock, const std::uint8_t* buf,
                            std::size_t len,
                            std::chrono::steady_clock::time_point deadline,
                            SocketOps& ops = SocketOps::system());

/// Blocking read of at most \p cap bytes, waiting for readability until
/// \p deadline. bytes == 0 with kWouldBlock means the deadline passed.
[[nodiscard]] IoResult recv_some(
    const Socket& sock, std::uint8_t* buf, std::size_t cap,
    std::chrono::steady_clock::time_point deadline,
    SocketOps& ops = SocketOps::system());

}  // namespace mmph::net
