#include "mmph/wal/snapshot.hpp"

#include <bit>
#include <cmath>

#include "mmph/support/assert.hpp"
#include "mmph/support/little_endian.hpp"

namespace mmph::wal {
namespace {

constexpr std::size_t kSnapshotHeaderBytes = 24;

/// FNV-1a over a 64-bit word, fed byte-by-byte (little-endian order, so
/// the digest is platform-independent like the codecs).
std::uint64_t fnv_word(std::uint64_t hash, std::uint64_t word) noexcept {
  for (int shift = 0; shift < 64; shift += 8) {
    hash ^= (word >> shift) & 0xFFu;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

}  // namespace

void encode_snapshot(const WalSnapshot& snapshot,
                     std::vector<std::uint8_t>& out) {
  const std::size_t count = snapshot.ids.size();
  MMPH_REQUIRE(snapshot.dim >= 1 && snapshot.dim <= kMaxRecordDim,
               "wal: snapshot dim out of range");
  MMPH_REQUIRE(snapshot.weights.size() == count,
               "wal: snapshot weights/ids size mismatch");
  MMPH_REQUIRE(snapshot.coords.size() == count * snapshot.dim,
               "wal: snapshot coords/ids size mismatch");

  const std::size_t start = out.size();
  le::put_u32(out, kSnapshotMagic);
  out.push_back(kWalVersion);
  out.push_back(0);  // reserved
  le::put_u16(out, snapshot.dim);
  le::put_u64(out, snapshot.epoch);
  le::put_u64(out, static_cast<std::uint64_t>(count));
  for (const std::uint64_t id : snapshot.ids) le::put_u64(out, id);
  for (const double w : snapshot.weights) le::put_f64(out, w);
  for (const double c : snapshot.coords) le::put_f64(out, c);
  const std::uint32_t crc = crc32c(out.data() + start, out.size() - start);
  le::put_u32(out, crc);
}

RecordDecodeStatus decode_snapshot(const std::uint8_t* data, std::size_t size,
                                   WalSnapshot& out) {
  if (size < kSnapshotHeaderBytes + 4) {
    return RecordDecodeStatus::kNeedMoreData;
  }
  le::Cursor header(data, kSnapshotHeaderBytes);
  const std::uint32_t magic = header.u32();
  const std::uint8_t version = header.u8();
  const std::uint8_t reserved = header.u8();
  const std::uint16_t dim = header.u16();
  const std::uint64_t epoch = header.u64();
  const std::uint64_t count = header.u64();

  if (magic != kSnapshotMagic) return RecordDecodeStatus::kBadMagic;
  if (version != kWalVersion) return RecordDecodeStatus::kBadVersion;
  if (reserved != 0) return RecordDecodeStatus::kMalformed;
  if (dim == 0 || dim > kMaxRecordDim) return RecordDecodeStatus::kOversized;
  // Size math in 64-bit with the count bounded first: a hostile count
  // cannot overflow the expected-size computation.
  const std::uint64_t body = size - kSnapshotHeaderBytes - 4;
  if (count > body / 16) return RecordDecodeStatus::kOversized;
  const std::uint64_t need = count * (16 + 8ull * dim);
  if (body < need) return RecordDecodeStatus::kNeedMoreData;
  if (body != need) return RecordDecodeStatus::kMalformed;
  // A snapshot can only stand in for the store state it claims: count
  // applied elements need at least count epoch ticks.
  if (epoch < count) return RecordDecodeStatus::kMalformed;

  const std::uint32_t crc = crc32c(data, size - 4);
  le::Cursor tail(data + size - 4, 4);
  if (crc != tail.u32()) return RecordDecodeStatus::kBadCrc;

  WalSnapshot snapshot;
  snapshot.epoch = epoch;
  snapshot.dim = dim;
  snapshot.ids.reserve(count);
  snapshot.weights.reserve(count);
  snapshot.coords.reserve(count * dim);
  le::Cursor cursor(data + kSnapshotHeaderBytes, need);
  for (std::uint64_t i = 0; i < count; ++i) {
    snapshot.ids.push_back(cursor.u64());
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    const double w = cursor.f64();
    if (!std::isfinite(w) || w <= 0.0) return RecordDecodeStatus::kMalformed;
    snapshot.weights.push_back(w);
  }
  for (std::uint64_t i = 0; i < count * dim; ++i) {
    const double c = cursor.f64();
    if (!std::isfinite(c)) return RecordDecodeStatus::kMalformed;
    snapshot.coords.push_back(c);
  }
  out = std::move(snapshot);
  return RecordDecodeStatus::kOk;
}

std::uint64_t snapshot_digest(const WalSnapshot& snapshot) noexcept {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  hash = fnv_word(hash, snapshot.epoch);
  hash = fnv_word(hash, snapshot.dim);
  hash = fnv_word(hash, snapshot.ids.size());
  for (const std::uint64_t id : snapshot.ids) hash = fnv_word(hash, id);
  for (const double w : snapshot.weights) {
    hash = fnv_word(hash, std::bit_cast<std::uint64_t>(w));
  }
  for (const double c : snapshot.coords) {
    hash = fnv_word(hash, std::bit_cast<std::uint64_t>(c));
  }
  return hash;
}

}  // namespace mmph::wal
