#pragma once

/// \file writer.hpp
/// \brief Append-only log writer with group commit and checkpoint rolls.
///
/// One WalWriter owns one log directory:
///
///   <dir>/wal-<epoch>.mmpl    log segment; records with epochs > <epoch>
///   <dir>/snap-<epoch>.mmps   checkpoint of the store at <epoch>
///
/// Appends go to the newest segment; write_snapshot() checkpoints the
/// store, rolls a fresh segment named after the checkpoint epoch, and
/// prunes every file the checkpoint made redundant. Durability is
/// policy-driven (FsyncPolicy); the PlacementService appends *before*
/// applying a mutation and commits before acking, so a kOk reply implies
/// the op is in the log at least as durably as the policy promises.
///
/// Failure model: the first failed write/fsync poisons the writer — every
/// later append/commit throws WalError without touching the file. Poison
/// instead of retry keeps the on-disk tail well-defined (at most one torn
/// record, which recovery drops); the service layer surfaces the poison
/// as kInternalError and the operator restarts through recovery.
///
/// The writer also retains an in-memory tail of recently appended,
/// already-encoded records (bounded by tail_retain_bytes). tail_since()
/// serves the replication stream from it without touching the disk; a
/// subscriber that has fallen behind the retained window is told to take
/// a fresh snapshot instead.
///
/// Thread-safe: every public method serializes on one internal mutex
/// (appends come from the service's batch path, tail reads from the
/// server's event loop).

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mmph/obs/registry.hpp"
#include "mmph/wal/file_ops.hpp"
#include "mmph/wal/record.hpp"
#include "mmph/wal/snapshot.hpp"

namespace mmph::wal {

/// When appended records hit the platter.
enum class FsyncPolicy : std::uint8_t {
  kAlways,       ///< fsync inside every append (durable before the ack)
  kGroupCommit,  ///< fsync once per commit() — one sync covers a batch
  kNever,        ///< leave syncing to the OS (benchmarks, throwaway data)
};

[[nodiscard]] const char* to_string(FsyncPolicy policy) noexcept;
/// Parses "always" / "group" / "never"; nullopt otherwise.
[[nodiscard]] std::optional<FsyncPolicy> fsync_policy_from_string(
    std::string_view text) noexcept;

struct WalConfig {
  std::string dir;
  FsyncPolicy fsync = FsyncPolicy::kGroupCommit;
  /// write_snapshot is suggested (wants_snapshot()) once this many
  /// applied elements accumulated since the last checkpoint; 0 disables
  /// the suggestion (explicit checkpoints only).
  std::uint64_t snapshot_every_ops = 0;
  /// Byte budget of the in-memory replication tail.
  std::size_t tail_retain_bytes = 4u << 20;
  /// File syscall hook table; null selects FileOps::system(). Tests point
  /// this at MemFileOps or chaos::FaultyFileOps. Must outlive the writer.
  FileOps* file_ops = nullptr;
};

/// Log file names, zero-padded so lexicographic order is epoch order.
[[nodiscard]] std::string segment_file_name(std::uint64_t epoch);
[[nodiscard]] std::string snapshot_file_name(std::uint64_t epoch);
/// Epoch encoded in \p name when it matches \p prefix<digits>\p suffix.
[[nodiscard]] std::optional<std::uint64_t> parse_file_epoch(
    std::string_view name, std::string_view prefix, std::string_view suffix);

class WalWriter {
 public:
  /// Opens \p config.dir (creating it) and starts a segment at
  /// \p base_epoch / \p base_lsn — zeros for a fresh log, the recovery
  /// result's values when continuing an existing one. \throws WalError
  /// when the directory or segment cannot be created.
  explicit WalWriter(WalConfig config, std::uint64_t base_epoch = 0,
                     std::uint64_t base_lsn = 0);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record, assigning record.lsn and record.epoch (the
  /// current epoch advanced by record.count()). Under kAlways the record
  /// is fsync'd before append returns. \throws WalError when the writer
  /// is poisoned or the write fails (which poisons it) — the caller must
  /// then NOT apply the mutation.
  void append(WalRecord& record);

  /// Durability barrier for everything appended so far (one fsync under
  /// kGroupCommit; no-op otherwise). \throws WalError on failure, which
  /// poisons the writer; the appended mutations are applied in memory but
  /// their durability is unknown — callers ack kInternalError.
  void commit();

  /// Checkpoints \p snapshot, rolls a fresh segment, and prunes files the
  /// checkpoint covers. \p snapshot.epoch must be >= the writer's epoch:
  /// equal for the normal "checkpoint what I just logged" call, greater
  /// when installing a replicated snapshot (the writer's epoch jumps).
  /// \throws WalError on any IO failure (poisons).
  void write_snapshot(const WalSnapshot& snapshot);

  /// True once snapshot_every_ops > 0 applied elements accumulated since
  /// the last checkpoint — the service's cue to call write_snapshot.
  [[nodiscard]] bool wants_snapshot() const;

  /// Marks the writer failed (store/log divergence detected upstream).
  void poison(const std::string& reason);
  [[nodiscard]] bool failed() const;

  struct TailResult {
    /// False when \p epoch predates the retained window — the subscriber
    /// needs a full snapshot before streaming can resume.
    bool covered = false;
    std::uint64_t last_epoch = 0;  ///< epoch after applying \p bytes
    std::uint32_t count = 0;       ///< whole records in \p bytes
    std::vector<std::uint8_t> bytes;
  };

  /// Encoded records with epochs > \p epoch, up to ~\p max_bytes (always
  /// whole records, at least one when any is pending).
  [[nodiscard]] TailResult tail_since(std::uint64_t epoch,
                                      std::size_t max_bytes = 1u << 20) const;

  [[nodiscard]] std::uint64_t last_lsn() const;
  [[nodiscard]] std::uint64_t last_epoch() const;
  [[nodiscard]] std::uint64_t snapshot_epoch() const;
  [[nodiscard]] std::uint64_t ops_since_snapshot() const;
  [[nodiscard]] const WalConfig& config() const noexcept { return config_; }

  /// Describes the mmph_wal_* series, carrying \p labels, into
  /// \p registry (the kStats scrape).
  void describe(obs::Registry& registry, const obs::Labels& labels = {}) const;

 private:
  struct TailEntry {
    std::uint64_t epoch_after = 0;
    std::uint32_t count = 0;
    std::vector<std::uint8_t> bytes;
  };

  void write_all_locked(int fd, const std::uint8_t* data, std::size_t len,
                        const char* what);
  void fsync_locked(int fd, const char* what);
  [[nodiscard]] WalError poison_locked(const std::string& reason);
  void prune_locked(std::uint64_t keep_epoch);

  WalConfig config_;
  FileOps& ops_;

  mutable std::mutex mutex_;
  int fd_ = -1;
  bool failed_ = false;
  bool dirty_ = false;  ///< bytes appended since the last fsync
  std::uint64_t next_lsn_ = 1;
  std::uint64_t last_epoch_ = 0;
  std::uint64_t snapshot_epoch_ = 0;
  std::uint64_t ops_since_snapshot_ = 0;

  std::deque<TailEntry> tail_;
  std::size_t tail_bytes_ = 0;
  std::uint64_t tail_base_epoch_ = 0;  ///< epoch before the oldest entry

  obs::Counter appends_total_;
  obs::Counter bytes_total_;
  obs::Counter commits_total_;
  obs::Counter snapshots_total_;
  obs::Counter failures_total_;
  obs::Histogram fsync_seconds_;
};

}  // namespace mmph::wal
