#include "probes.hpp"

#include "loadgen.hpp"

namespace perfbench {
namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string base_name(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

void CountingSocketOps::add(bool is_read, std::int64_t ns) {
  (is_read ? reads_ : writes_).fetch_add(1, std::memory_order_relaxed);
  ns_.fetch_add(ns, std::memory_order_relaxed);
}

ssize_t CountingSocketOps::read(int fd, std::uint8_t* buf, std::size_t cap) {
  const std::int64_t t = now_ns();
  const ssize_t n = SocketOps::read(fd, buf, cap);
  add(true, now_ns() - t);
  return n;
}

ssize_t CountingSocketOps::write(int fd, const std::uint8_t* buf,
                                 std::size_t len) {
  const std::int64_t t = now_ns();
  const ssize_t n = SocketOps::write(fd, buf, len);
  add(false, now_ns() - t);
  return n;
}

ssize_t CountingSocketOps::writev(int fd, const iovec* iov, int iovcnt) {
  const std::int64_t t = now_ns();
  const ssize_t n = SocketOps::writev(fd, iov, iovcnt);
  add(false, now_ns() - t);
  return n;
}

CountingSocketOps::Totals CountingSocketOps::totals() const {
  return Totals{reads_.load(), writes_.load(), ns_.load()};
}

RecordingFileOps::RecordingFileOps(mmph::wal::FileOps& inner,
                                   std::size_t expected_fsyncs)
    : inner_(inner) {
  fsync_done_.reserve(expected_fsyncs);
}

int RecordingFileOps::open(const std::string& path, mmph::wal::OpenMode mode) {
  const std::int64_t t = now_ns();
  const int fd = inner_.open(path, mode);
  const std::string name = base_name(path);
  std::lock_guard<std::mutex> lock(mutex_);
  if (name == "snap.tmp") {
    checkpoint_start_ = t;
  } else if (fd >= 0 && name.rfind("wal-", 0) == 0 &&
             ends_with(name, ".mmpl")) {
    segment_fds_.insert(fd);
    if (checkpoint_start_ != 0) {
      ++totals_.checkpoints;
      totals_.checkpoint_ns += now_ns() - checkpoint_start_;
      checkpoint_start_ = 0;
    }
  }
  return fd;
}

ssize_t RecordingFileOps::write(int fd, const std::uint8_t* buf,
                                std::size_t len) {
  const ssize_t n = inner_.write(fd, buf, len);
  if (n > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (segment_fds_.count(fd) != 0) {
      ++totals_.segment_writes;
      totals_.segment_bytes += static_cast<std::uint64_t>(n);
    }
  }
  return n;
}

int RecordingFileOps::fsync(int fd) {
  const int rc = inner_.fsync(fd);
  const std::int64_t done = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  if (rc == 0 && segment_fds_.count(fd) != 0) {
    ++totals_.segment_fsyncs;
    fsync_done_.push_back(done);
  }
  return rc;
}

int RecordingFileOps::close(int fd) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    segment_fds_.erase(fd);
  }
  return inner_.close(fd);
}

ssize_t RecordingFileOps::read(int fd, std::uint8_t* buf, std::size_t cap) {
  return inner_.read(fd, buf, cap);
}

int RecordingFileOps::rename(const std::string& from, const std::string& to) {
  return inner_.rename(from, to);
}

int RecordingFileOps::remove(const std::string& path) {
  return inner_.remove(path);
}

int RecordingFileOps::mkdir(const std::string& path) {
  return inner_.mkdir(path);
}

int RecordingFileOps::sync_dir(const std::string& dir) {
  return inner_.sync_dir(dir);
}

std::optional<std::vector<std::string>> RecordingFileOps::list(
    const std::string& dir) {
  return inner_.list(dir);
}

RecordingFileOps::Totals RecordingFileOps::totals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return totals_;
}

std::vector<std::int64_t> RecordingFileOps::fsync_done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fsync_done_;
}

}  // namespace perfbench
