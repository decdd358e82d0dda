#pragma once

/// \file probes.hpp
/// \brief Counting forwarders on the program's public syscall seams.
///
/// NetServerConfig::socket_ops and WalConfig::file_ops accept a hook
/// table; these forwarders pass every call on and count and time it on
/// the way. Nothing inside the program changes — the benchmark observes
/// the server's socket and WAL traffic from outside.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "mmph/net/socket.hpp"
#include "mmph/wal/file_ops.hpp"

namespace perfbench {

/// Server-side socket syscalls (read / write / writev), counted and timed.
/// Installed only in the traced run; the event loop is its only caller.
class CountingSocketOps final : public mmph::net::SocketOps {
 public:
  ssize_t read(int fd, std::uint8_t* buf, std::size_t cap) override;
  ssize_t write(int fd, const std::uint8_t* buf, std::size_t len) override;
  ssize_t writev(int fd, const iovec* iov, int iovcnt) override;

  struct Totals {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;  ///< write + writev
    std::int64_t ns = 0;       ///< time inside the three syscalls
  };
  [[nodiscard]] Totals totals() const;

 private:
  void add(bool is_read, std::int64_t ns);

  std::atomic<std::uint64_t> reads_{0};
  std::atomic<std::uint64_t> writes_{0};
  std::atomic<std::int64_t> ns_{0};
};

/// WAL file calls, forwarded to \p inner. Records the completion time of
/// every fsync of a log segment (wal-*.mmpl) for the durability check,
/// plus segment write() calls and bytes, and checkpoint count and
/// duration (open of the snapshot temp file to the open of the segment
/// the checkpoint rolls to). Cheap enough to stay on in untraced runs:
/// one clock read per open/fsync.
class RecordingFileOps final : public mmph::wal::FileOps {
 public:
  RecordingFileOps(mmph::wal::FileOps& inner, std::size_t expected_fsyncs);

  int open(const std::string& path, mmph::wal::OpenMode mode) override;
  ssize_t read(int fd, std::uint8_t* buf, std::size_t cap) override;
  ssize_t write(int fd, const std::uint8_t* buf, std::size_t len) override;
  int fsync(int fd) override;
  int close(int fd) override;
  int rename(const std::string& from, const std::string& to) override;
  int remove(const std::string& path) override;
  int mkdir(const std::string& path) override;
  int sync_dir(const std::string& dir) override;
  std::optional<std::vector<std::string>> list(const std::string& dir) override;

  struct Totals {
    std::uint64_t segment_fsyncs = 0;
    std::uint64_t segment_writes = 0;
    std::uint64_t segment_bytes = 0;
    std::uint64_t checkpoints = 0;
    std::int64_t checkpoint_ns = 0;
  };
  [[nodiscard]] Totals totals() const;
  /// Completion times (now_ns) of every segment fsync, ascending.
  [[nodiscard]] std::vector<std::int64_t> fsync_done() const;

 private:
  mmph::wal::FileOps& inner_;
  mutable std::mutex mutex_;
  std::set<int> segment_fds_;
  std::int64_t checkpoint_start_ = 0;
  Totals totals_;
  std::vector<std::int64_t> fsync_done_;
};

}  // namespace perfbench
