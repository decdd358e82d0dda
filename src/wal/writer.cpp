#include "mmph/wal/writer.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "mmph/support/assert.hpp"

namespace mmph::wal {
namespace {

using Clock = std::chrono::steady_clock;

std::string with_errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

const char* to_string(FsyncPolicy policy) noexcept {
  switch (policy) {
    case FsyncPolicy::kAlways: return "always";
    case FsyncPolicy::kGroupCommit: return "group";
    case FsyncPolicy::kNever: return "never";
  }
  return "FsyncPolicy(?)";
}

std::optional<FsyncPolicy> fsync_policy_from_string(
    std::string_view text) noexcept {
  if (text == "always") return FsyncPolicy::kAlways;
  if (text == "group") return FsyncPolicy::kGroupCommit;
  if (text == "never") return FsyncPolicy::kNever;
  return std::nullopt;
}

std::string segment_file_name(std::uint64_t epoch) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "wal-%020llu.mmpl",
                static_cast<unsigned long long>(epoch));
  return buf;
}

std::string snapshot_file_name(std::uint64_t epoch) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "snap-%020llu.mmps",
                static_cast<unsigned long long>(epoch));
  return buf;
}

std::optional<std::uint64_t> parse_file_epoch(std::string_view name,
                                              std::string_view prefix,
                                              std::string_view suffix) {
  if (name.size() != prefix.size() + 20 + suffix.size()) return std::nullopt;
  if (name.substr(0, prefix.size()) != prefix) return std::nullopt;
  if (name.substr(prefix.size() + 20) != suffix) return std::nullopt;
  std::uint64_t epoch = 0;
  for (std::size_t i = prefix.size(); i < prefix.size() + 20; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return std::nullopt;
    // 20 decimal digits can exceed 2^64; saturate instead of wrapping so
    // a hostile name cannot alias a small epoch.
    if (epoch > (~0ull - static_cast<std::uint64_t>(c - '0')) / 10) {
      return std::nullopt;
    }
    epoch = epoch * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return epoch;
}

WalWriter::WalWriter(WalConfig config, std::uint64_t base_epoch,
                     std::uint64_t base_lsn)
    : config_(std::move(config)),
      ops_(config_.file_ops != nullptr ? *config_.file_ops
                                       : FileOps::system()),
      next_lsn_(base_lsn + 1),
      last_epoch_(base_epoch),
      snapshot_epoch_(base_epoch),
      tail_base_epoch_(base_epoch) {
  MMPH_REQUIRE(!config_.dir.empty(), "WalWriter: dir must be set");
  if (ops_.mkdir(config_.dir) < 0 && errno != EEXIST) {
    throw WalError(with_errno("wal: mkdir " + config_.dir));
  }
  // Truncate, not append: a file with this base epoch can only hold torn
  // garbage from a run that poisoned itself at this exact epoch (recovery
  // replayed everything usable into base_epoch already).
  const std::string path = config_.dir + "/" + segment_file_name(base_epoch);
  fd_ = ops_.open(path, OpenMode::kTruncate);
  if (fd_ < 0) throw WalError(with_errno("wal: open " + path));
  if (ops_.sync_dir(config_.dir) < 0) {
    throw WalError(with_errno("wal: sync_dir " + config_.dir));
  }
}

void WalWriter::describe(obs::Registry& registry,
                         const obs::Labels& labels) const {
  registry.add("mmph_wal_appends_total",
               "Records appended to the write-ahead log", appends_total_,
               labels);
  registry.add("mmph_wal_bytes", "Bytes appended to the write-ahead log",
               bytes_total_, labels);
  registry.add("mmph_wal_commits_total", "Group-commit durability barriers",
               commits_total_, labels);
  registry.add("mmph_wal_snapshots_total", "Checkpoints written",
               snapshots_total_, labels);
  registry.add("mmph_wal_failures_total", "WAL writes/fsyncs that failed",
               failures_total_, labels);
  registry.add("mmph_wal_fsync_seconds", "Latency of WAL fsync calls",
               fsync_seconds_, labels);
}

WalWriter::~WalWriter() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ >= 0) {
    if (dirty_ && !failed_) (void)ops_.fsync(fd_);
    (void)ops_.close(fd_);
    fd_ = -1;
  }
}

WalError WalWriter::poison_locked(const std::string& reason) {
  failed_ = true;
  failures_total_.add();
  return WalError(reason);
}

void WalWriter::write_all_locked(int fd, const std::uint8_t* data,
                                 std::size_t len, const char* what) {
  std::size_t written = 0;
  while (written < len) {
    const ssize_t n = ops_.write(fd, data + written, len - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw poison_locked(with_errno(std::string("wal: write ") + what));
    }
    if (n == 0) {
      throw poison_locked(std::string("wal: zero-byte write ") + what);
    }
    written += static_cast<std::size_t>(n);
  }
}

void WalWriter::fsync_locked(int fd, const char* what) {
  const auto start = Clock::now();
  int rc;
  do {
    rc = ops_.fsync(fd);
  } while (rc < 0 && errno == EINTR);
  fsync_seconds_.observe(
      std::chrono::duration<double>(Clock::now() - start).count());
  if (rc < 0) {
    throw poison_locked(with_errno(std::string("wal: fsync ") + what));
  }
}

void WalWriter::append(WalRecord& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (failed_) throw WalError("wal: writer is poisoned");
  record.lsn = next_lsn_;
  record.epoch = last_epoch_ + record.count();

  std::vector<std::uint8_t> bytes;
  encode_record(record, bytes);
  write_all_locked(fd_, bytes.data(), bytes.size(), "segment");
  dirty_ = true;
  if (config_.fsync == FsyncPolicy::kAlways) {
    fsync_locked(fd_, "segment");
    dirty_ = false;
  }

  appends_total_.add();
  bytes_total_.add(bytes.size());
  next_lsn_ += 1;
  last_epoch_ = record.epoch;
  ops_since_snapshot_ += record.count();

  TailEntry entry;
  entry.epoch_after = record.epoch;
  entry.count = record.count();
  tail_bytes_ += bytes.size();
  entry.bytes = std::move(bytes);
  tail_.push_back(std::move(entry));
  while (tail_bytes_ > config_.tail_retain_bytes && !tail_.empty()) {
    tail_bytes_ -= tail_.front().bytes.size();
    tail_base_epoch_ = tail_.front().epoch_after;
    tail_.pop_front();
  }
}

void WalWriter::commit() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (failed_) throw WalError("wal: writer is poisoned");
  if (config_.fsync == FsyncPolicy::kGroupCommit && dirty_) {
    fsync_locked(fd_, "segment");
    dirty_ = false;
    commits_total_.add();
  }
}

void WalWriter::write_snapshot(const WalSnapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (failed_) throw WalError("wal: writer is poisoned");
  MMPH_REQUIRE(snapshot.epoch >= last_epoch_,
               "WalWriter::write_snapshot: snapshot behind the log");

  std::vector<std::uint8_t> bytes;
  encode_snapshot(snapshot, bytes);

  // Temp + fsync + rename + dir sync: a crash at any point leaves either
  // the old snapshot set or the complete new one under its final name.
  const std::string tmp = config_.dir + "/snap.tmp";
  const std::string final_path =
      config_.dir + "/" + snapshot_file_name(snapshot.epoch);
  const int snap_fd = ops_.open(tmp, OpenMode::kTruncate);
  if (snap_fd < 0) throw poison_locked(with_errno("wal: open " + tmp));
  try {
    write_all_locked(snap_fd, bytes.data(), bytes.size(), "snapshot");
    fsync_locked(snap_fd, "snapshot");
  } catch (...) {
    (void)ops_.close(snap_fd);
    throw;
  }
  if (ops_.close(snap_fd) < 0) {
    throw poison_locked(with_errno("wal: close " + tmp));
  }
  if (ops_.rename(tmp, final_path) < 0) {
    throw poison_locked(with_errno("wal: rename " + final_path));
  }
  if (ops_.sync_dir(config_.dir) < 0) {
    throw poison_locked(with_errno("wal: sync_dir " + config_.dir));
  }

  // Roll the segment: records at or below the checkpoint epoch are now
  // redundant, so the fresh segment starts empty at the checkpoint.
  if (fd_ >= 0) (void)ops_.close(fd_);
  fd_ = -1;
  const std::string seg =
      config_.dir + "/" + segment_file_name(snapshot.epoch);
  fd_ = ops_.open(seg, OpenMode::kTruncate);
  if (fd_ < 0) throw poison_locked(with_errno("wal: open " + seg));
  if (ops_.sync_dir(config_.dir) < 0) {
    throw poison_locked(with_errno("wal: sync_dir " + config_.dir));
  }
  dirty_ = false;

  if (snapshot.epoch > last_epoch_) {
    // Installing a foreign (replicated) snapshot: the epoch jumps, so the
    // retained tail no longer chains to the log.
    tail_.clear();
    tail_bytes_ = 0;
    tail_base_epoch_ = snapshot.epoch;
    last_epoch_ = snapshot.epoch;
  }
  snapshot_epoch_ = snapshot.epoch;
  ops_since_snapshot_ = 0;
  snapshots_total_.add();
  prune_locked(snapshot.epoch);
}

void WalWriter::prune_locked(std::uint64_t keep_epoch) {
  const auto names = ops_.list(config_.dir);
  if (!names.has_value()) return;  // pruning is best-effort
  for (const std::string& name : *names) {
    const auto snap_epoch = parse_file_epoch(name, "snap-", ".mmps");
    const auto seg_epoch = parse_file_epoch(name, "wal-", ".mmpl");
    const bool stale = (snap_epoch.has_value() && *snap_epoch < keep_epoch) ||
                       (seg_epoch.has_value() && *seg_epoch < keep_epoch);
    if (stale) (void)ops_.remove(config_.dir + "/" + name);
  }
}

bool WalWriter::wants_snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !failed_ && config_.snapshot_every_ops > 0 &&
         ops_since_snapshot_ >= config_.snapshot_every_ops;
}

void WalWriter::poison(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!failed_) (void)poison_locked(reason);
}

bool WalWriter::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

WalWriter::TailResult WalWriter::tail_since(std::uint64_t epoch,
                                            std::size_t max_bytes) const {
  std::lock_guard<std::mutex> lock(mutex_);
  TailResult result;
  if (epoch < tail_base_epoch_) return result;  // fell behind the window
  result.covered = true;
  result.last_epoch = epoch;
  for (const TailEntry& entry : tail_) {
    if (entry.epoch_after <= epoch) continue;
    if (!result.bytes.empty() &&
        result.bytes.size() + entry.bytes.size() > max_bytes) {
      break;
    }
    result.bytes.insert(result.bytes.end(), entry.bytes.begin(),
                        entry.bytes.end());
    result.count += entry.count;
    result.last_epoch = entry.epoch_after;
  }
  return result;
}

std::uint64_t WalWriter::last_lsn() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_lsn_ - 1;
}

std::uint64_t WalWriter::last_epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_epoch_;
}

std::uint64_t WalWriter::snapshot_epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_epoch_;
}

std::uint64_t WalWriter::ops_since_snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return ops_since_snapshot_;
}

}  // namespace mmph::wal
