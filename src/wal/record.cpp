#include "mmph/wal/record.hpp"

#include <array>
#include <cmath>

#include "mmph/support/assert.hpp"
#include "mmph/support/little_endian.hpp"

namespace mmph::wal {
namespace {

/// Table-driven CRC-32C (reflected polynomial 0x82F63B78), built once at
/// static-init time. Software only: portable, and fast enough that the
/// append path is dominated by the write() syscall, not the checksum.
std::array<std::uint32_t, 256> make_crc32c_table() noexcept {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<std::uint32_t, 256> kCrc32cTable = make_crc32c_table();

bool finite(double v) noexcept { return std::isfinite(v); }

}  // namespace

std::uint32_t crc32c(const std::uint8_t* data, std::size_t n,
                     std::uint32_t seed) noexcept {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ kCrc32cTable[(crc ^ data[i]) & 0xFFu];
  }
  return ~crc;
}

void encode_record(const WalRecord& record, std::vector<std::uint8_t>& out) {
  const std::size_t count = record.ids.size();
  MMPH_REQUIRE(count >= 1 && count <= kMaxRecordCount,
               "wal: record count out of range");
  std::size_t payload = count * 8;
  if (record.type == RecordType::kUpsert) {
    MMPH_REQUIRE(record.dim >= 1 && record.dim <= kMaxRecordDim,
                 "wal: record dim out of range");
    MMPH_REQUIRE(record.weights.size() == count,
                 "wal: weights/ids size mismatch");
    MMPH_REQUIRE(record.coords.size() == count * record.dim,
                 "wal: coords/ids size mismatch");
    payload += count * (8 + 8ull * record.dim);
  } else {
    MMPH_REQUIRE(record.type == RecordType::kRemove, "wal: bad record type");
    MMPH_REQUIRE(record.dim == 0, "wal: remove record carries a dim");
    MMPH_REQUIRE(record.weights.empty() && record.coords.empty(),
                 "wal: remove record carries upsert fields");
  }
  MMPH_REQUIRE(payload <= kMaxRecordPayloadBytes,
               "wal: record payload exceeds kMaxRecordPayloadBytes");

  const std::size_t header_start = out.size();
  le::put_u32(out, kRecordMagic);
  out.push_back(kWalVersion);
  out.push_back(static_cast<std::uint8_t>(record.type));
  le::put_u16(out, record.dim);
  le::put_u64(out, record.lsn);
  le::put_u64(out, record.epoch);
  le::put_u32(out, static_cast<std::uint32_t>(count));
  le::put_u32(out, static_cast<std::uint32_t>(payload));
  le::put_u32(out, 0);  // crc placeholder
  if (record.type == RecordType::kUpsert) {
    for (std::size_t i = 0; i < count; ++i) {
      le::put_u64(out, record.ids[i]);
      le::put_f64(out, record.weights[i]);
      for (std::uint16_t d = 0; d < record.dim; ++d) {
        le::put_f64(out, record.coords[i * record.dim + d]);
      }
    }
  } else {
    for (const std::uint64_t id : record.ids) le::put_u64(out, id);
  }

  // CRC over everything except the crc field itself: the first 32 header
  // bytes, then the payload.
  const std::uint8_t* base = out.data() + header_start;
  std::uint32_t crc = crc32c(base, kRecordHeaderBytes - 4);
  crc = crc32c(base + kRecordHeaderBytes, payload, crc);
  for (int i = 0; i < 4; ++i) {
    out[header_start + 32 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

const char* to_string(RecordDecodeStatus status) noexcept {
  switch (status) {
    case RecordDecodeStatus::kOk: return "kOk";
    case RecordDecodeStatus::kNeedMoreData: return "kNeedMoreData";
    case RecordDecodeStatus::kBadMagic: return "kBadMagic";
    case RecordDecodeStatus::kBadVersion: return "kBadVersion";
    case RecordDecodeStatus::kBadType: return "kBadType";
    case RecordDecodeStatus::kOversized: return "kOversized";
    case RecordDecodeStatus::kBadCrc: return "kBadCrc";
    case RecordDecodeStatus::kMalformed: return "kMalformed";
  }
  return "RecordDecodeStatus(?)";
}

RecordDecodeResult decode_record(const std::uint8_t* data, std::size_t size) {
  RecordDecodeResult result;
  const auto fail = [&](RecordDecodeStatus status) {
    result.status = status;
    return result;
  };
  if (size < kRecordHeaderBytes) return result;  // kNeedMoreData

  le::Cursor header(data, kRecordHeaderBytes);
  const std::uint32_t magic = header.u32();
  const std::uint8_t version = header.u8();
  const std::uint8_t type_byte = header.u8();
  const std::uint16_t dim = header.u16();
  const std::uint64_t lsn = header.u64();
  const std::uint64_t epoch = header.u64();
  const std::uint32_t count = header.u32();
  const std::uint32_t payload_len = header.u32();
  const std::uint32_t stored_crc = header.u32();

  if (magic != kRecordMagic) return fail(RecordDecodeStatus::kBadMagic);
  if (version != kWalVersion) return fail(RecordDecodeStatus::kBadVersion);
  if (type_byte != static_cast<std::uint8_t>(RecordType::kUpsert) &&
      type_byte != static_cast<std::uint8_t>(RecordType::kRemove)) {
    return fail(RecordDecodeStatus::kBadType);
  }
  if (payload_len > kMaxRecordPayloadBytes || count > kMaxRecordCount) {
    return fail(RecordDecodeStatus::kOversized);
  }
  if (size < kRecordHeaderBytes + payload_len) return result;  // torn tail

  std::uint32_t crc = crc32c(data, kRecordHeaderBytes - 4);
  crc = crc32c(data + kRecordHeaderBytes, payload_len, crc);
  if (crc != stored_crc) return fail(RecordDecodeStatus::kBadCrc);

  const auto type = static_cast<RecordType>(type_byte);
  if (count == 0) return fail(RecordDecodeStatus::kMalformed);
  if (type == RecordType::kUpsert) {
    if (dim == 0 || dim > kMaxRecordDim) {
      return fail(RecordDecodeStatus::kOversized);
    }
    if (payload_len != static_cast<std::uint64_t>(count) * (16 + 8ull * dim)) {
      return fail(RecordDecodeStatus::kMalformed);
    }
  } else {
    if (dim != 0) return fail(RecordDecodeStatus::kMalformed);
    if (payload_len != 8ull * count) {
      return fail(RecordDecodeStatus::kMalformed);
    }
  }
  // The chain rule "epoch - count = epoch before this record" needs the
  // subtraction to be meaningful.
  if (epoch < count) return fail(RecordDecodeStatus::kMalformed);

  WalRecord record;
  record.type = type;
  record.lsn = lsn;
  record.epoch = epoch;
  record.dim = type == RecordType::kUpsert ? dim : 0;
  record.ids.reserve(count);
  le::Cursor body(data + kRecordHeaderBytes, payload_len);
  if (type == RecordType::kUpsert) {
    record.weights.reserve(count);
    record.coords.reserve(static_cast<std::size_t>(count) * dim);
    for (std::uint32_t i = 0; i < count; ++i) {
      record.ids.push_back(body.u64());
      const double weight = body.f64();
      if (!finite(weight) || weight <= 0.0) {
        return fail(RecordDecodeStatus::kMalformed);
      }
      record.weights.push_back(weight);
      for (std::uint16_t d = 0; d < dim; ++d) {
        const double c = body.f64();
        if (!finite(c)) return fail(RecordDecodeStatus::kMalformed);
        record.coords.push_back(c);
      }
    }
  } else {
    for (std::uint32_t i = 0; i < count; ++i) {
      record.ids.push_back(body.u64());
    }
  }
  if (!body.ok() || body.remaining() != 0) {
    return fail(RecordDecodeStatus::kMalformed);
  }

  result.record = std::move(record);
  result.consumed = kRecordHeaderBytes + payload_len;
  result.status = RecordDecodeStatus::kOk;
  return result;
}

}  // namespace mmph::wal
