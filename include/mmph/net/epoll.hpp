#pragma once

/// \file epoll.hpp
/// \brief RAII wrappers over epoll(7) and eventfd(2) for the event loops.
///
/// Each NetServer event loop owns one EpollSet (its readiness source) and
/// one Wakeup (how stop() interrupts its epoll_wait from another thread).
/// Both throw NetError on construction failure; operations on a
/// constructed object never throw — a failed EPOLL_CTL_DEL on an
/// already-closed fd is not an event-loop error.
///
/// The wrappers are deliberately thin: readiness is *only* used to decide
/// which connections to visit this iteration. Ordering — who is read
/// first, who is flushed first — stays with the loop's own fixed
/// connection order, which is what keeps `--loops 1` replay deterministic
/// (see DESIGN.md §15).

#include <sys/epoll.h>

#include <cstdint>

#include "mmph/net/socket.hpp"

namespace mmph::net {

/// Owning epoll instance. Level-triggered throughout: the loops re-derive
/// interest from connection state every pass, so edge semantics would buy
/// nothing and cost missed-wakeup bugs.
class EpollSet {
 public:
  /// \throws NetError when epoll_create1 fails.
  EpollSet();
  ~EpollSet();

  EpollSet(const EpollSet&) = delete;
  EpollSet& operator=(const EpollSet&) = delete;

  /// Registers \p fd for \p events with \p tag echoed in wait() results.
  void add(int fd, std::uint32_t events, void* tag) noexcept;
  /// Changes the registered event mask of \p fd.
  void mod(int fd, std::uint32_t events, void* tag) noexcept;
  /// Unregisters \p fd (no-op if it was never added or already closed).
  void del(int fd) noexcept;

  /// Waits up to \p timeout_ms for events; returns the number written to
  /// \p out (0 on timeout or EINTR).
  int wait(epoll_event* out, int cap, int timeout_ms) noexcept;

  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  int fd_ = -1;
};

/// Nonblocking eventfd used to interrupt an epoll_wait from another
/// thread. signal() is async-signal-safe-shaped (one write syscall) and
/// may be called concurrently by any number of threads.
class Wakeup {
 public:
  /// \throws NetError when eventfd creation fails.
  Wakeup();
  ~Wakeup();

  Wakeup(const Wakeup&) = delete;
  Wakeup& operator=(const Wakeup&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }

  /// Makes the owning loop's next (or current) epoll_wait return.
  void signal() noexcept;
  /// Consumes pending signals; called by the owning loop once woken.
  void drain() noexcept;

 private:
  int fd_ = -1;
};

}  // namespace mmph::net
