#include "mmph/net/wire.hpp"

#include <cmath>
#include <utility>

#include "mmph/support/assert.hpp"
#include "mmph/support/error.hpp"
#include "mmph/support/little_endian.hpp"

namespace mmph::net {
namespace {

void put_header(std::vector<std::uint8_t>& out, FrameType type,
                std::uint64_t request_id, std::uint32_t payload_len) {
  le::put_u32(out, kMagic);
  out.push_back(kWireVersion);
  out.push_back(static_cast<std::uint8_t>(type));
  le::put_u16(out, 0);  // reserved
  le::put_u64(out, request_id);
  le::put_u32(out, payload_len);
}

/// Patches the payload_len field once the payload has been appended (the
/// encoders write the header first, so the length is known only after).
void patch_payload_len(std::vector<std::uint8_t>& out,
                       std::size_t header_start) {
  const std::size_t payload = out.size() - header_start - kHeaderBytes;
  MMPH_REQUIRE(payload <= kMaxPayloadBytes,
               "wire: encoded payload exceeds kMaxPayloadBytes");
  const auto len = static_cast<std::uint32_t>(payload);
  for (int i = 0; i < 4; ++i) {
    out[header_start + 16 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(len >> (8 * i));
  }
}

bool finite(double v) noexcept { return std::isfinite(v); }

}  // namespace

const char* to_string(FrameType type) noexcept {
  switch (type) {
    case FrameType::kAddUsers: return "kAddUsers";
    case FrameType::kRemoveUsers: return "kRemoveUsers";
    case FrameType::kQueryPlacement: return "kQueryPlacement";
    case FrameType::kEvaluate: return "kEvaluate";
    case FrameType::kResponse: return "kResponse";
    case FrameType::kStats: return "kStats";
    case FrameType::kReplSubscribe: return "kReplSubscribe";
    case FrameType::kReplSnapshot: return "kReplSnapshot";
    case FrameType::kReplOps: return "kReplOps";
  }
  return "FrameType(?)";
}

const char* to_string(WireStatus status) noexcept {
  switch (status) {
    case WireStatus::kOk: return "kOk";
    case WireStatus::kTimeout: return "kTimeout";
    case WireStatus::kRejected: return "kRejected";
    case WireStatus::kShutdown: return "kShutdown";
    case WireStatus::kOverloaded: return "kOverloaded";
    case WireStatus::kBadRequest: return "kBadRequest";
    case WireStatus::kInternalError: return "kInternalError";
    case WireStatus::kConnectionLost: return "kConnectionLost";
  }
  return "WireStatus(?)";
}

const char* to_string(DecodeStatus status) noexcept {
  switch (status) {
    case DecodeStatus::kOk: return "kOk";
    case DecodeStatus::kNeedMoreData: return "kNeedMoreData";
    case DecodeStatus::kBadMagic: return "kBadMagic";
    case DecodeStatus::kBadVersion: return "kBadVersion";
    case DecodeStatus::kBadType: return "kBadType";
    case DecodeStatus::kOversizedFrame: return "kOversizedFrame";
    case DecodeStatus::kOversizedBatch: return "kOversizedBatch";
    case DecodeStatus::kBadDimension: return "kBadDimension";
    case DecodeStatus::kMalformedPayload: return "kMalformedPayload";
  }
  return "DecodeStatus(?)";
}

WireStatus to_wire_status(serve::ResponseStatus status) noexcept {
  switch (status) {
    case serve::ResponseStatus::kOk: return WireStatus::kOk;
    case serve::ResponseStatus::kTimeout: return WireStatus::kTimeout;
    case serve::ResponseStatus::kRejected: return WireStatus::kRejected;
    case serve::ResponseStatus::kShutdown: return WireStatus::kShutdown;
    case serve::ResponseStatus::kBadRequest: return WireStatus::kBadRequest;
    case serve::ResponseStatus::kInternalError:
      return WireStatus::kInternalError;
  }
  return WireStatus::kInternalError;
}

void encode_request(const RequestFrame& frame,
                    std::vector<std::uint8_t>& out) {
  const std::size_t header_start = out.size();
  put_header(out, frame.type, frame.request_id, 0);
  switch (frame.type) {
    case FrameType::kAddUsers: {
      MMPH_REQUIRE(frame.users.size() <= kMaxBatchCount,
                   "wire: add batch exceeds kMaxBatchCount");
      MMPH_REQUIRE(!frame.users.empty(), "wire: empty add batch");
      const std::size_t dim = frame.users.front().interest.size();
      MMPH_REQUIRE(dim >= 1 && dim <= kMaxDim, "wire: bad user dimension");
      le::put_u32(out, static_cast<std::uint32_t>(frame.users.size()));
      le::put_u16(out, static_cast<std::uint16_t>(dim));
      for (const serve::UserRecord& user : frame.users) {
        MMPH_REQUIRE(user.interest.size() == dim,
                     "wire: ragged user dimensions in one frame");
        le::put_u64(out, user.id);
        le::put_f64(out, user.weight);
        for (const double c : user.interest) le::put_f64(out, c);
      }
      break;
    }
    case FrameType::kRemoveUsers:
      MMPH_REQUIRE(frame.ids.size() <= kMaxBatchCount,
                   "wire: remove batch exceeds kMaxBatchCount");
      le::put_u32(out, static_cast<std::uint32_t>(frame.ids.size()));
      for (const std::uint64_t id : frame.ids) le::put_u64(out, id);
      break;
    case FrameType::kQueryPlacement:
    case FrameType::kStats:
      break;  // empty payload
    case FrameType::kReplSubscribe:
      le::put_u64(out, frame.have_epoch);
      break;
    case FrameType::kEvaluate: {
      MMPH_REQUIRE(frame.centers.has_value(), "wire: evaluate needs centers");
      const geo::PointSet& centers = *frame.centers;
      MMPH_REQUIRE(centers.size() <= kMaxBatchCount,
                   "wire: center batch exceeds kMaxBatchCount");
      MMPH_REQUIRE(centers.dim() >= 1 && centers.dim() <= kMaxDim,
                   "wire: bad center dimension");
      le::put_u32(out, static_cast<std::uint32_t>(centers.size()));
      le::put_u16(out, static_cast<std::uint16_t>(centers.dim()));
      for (const double c : centers.raw()) le::put_f64(out, c);
      break;
    }
    case FrameType::kResponse:
    case FrameType::kReplSnapshot:
    case FrameType::kReplOps:
      throw InvalidArgument("wire: encode_request given a non-request type");
  }
  patch_payload_len(out, header_start);
}

void encode_repl(const ReplFrame& frame, std::vector<std::uint8_t>& out) {
  const std::size_t header_start = out.size();
  switch (frame.type) {
    case FrameType::kReplSnapshot:
      MMPH_REQUIRE(frame.flags <= (kReplChunkFirst | kReplChunkLast),
                   "wire: bad snapshot chunk flags");
      MMPH_REQUIRE(frame.count == 0, "wire: snapshot chunk carries no count");
      put_header(out, frame.type, frame.request_id, 0);
      le::put_u64(out, frame.epoch);
      out.push_back(frame.flags);
      le::put_u32(out, static_cast<std::uint32_t>(frame.blob.size()));
      break;
    case FrameType::kReplOps:
      MMPH_REQUIRE(frame.flags == 0, "wire: ops frame carries no flags");
      MMPH_REQUIRE(frame.count >= 1, "wire: empty ops frame");
      put_header(out, frame.type, frame.request_id, 0);
      le::put_u64(out, frame.epoch);
      le::put_u32(out, frame.count);
      le::put_u32(out, static_cast<std::uint32_t>(frame.blob.size()));
      break;
    default:
      throw InvalidArgument("wire: encode_repl given a non-repl type");
  }
  out.insert(out.end(), frame.blob.begin(), frame.blob.end());
  patch_payload_len(out, header_start);  // also enforces kMaxPayloadBytes
}

void encode_response(const ResponseFrame& frame,
                     std::vector<std::uint8_t>& out) {
  const std::size_t header_start = out.size();
  put_header(out, FrameType::kResponse, frame.request_id, 0);
  const geo::PointSet* centers =
      frame.centers.has_value() ? &*frame.centers : nullptr;
  if (centers != nullptr) {
    MMPH_REQUIRE(centers->size() <= kMaxBatchCount,
                 "wire: center batch exceeds kMaxBatchCount");
    MMPH_REQUIRE(centers->dim() >= 1 && centers->dim() <= kMaxDim,
                 "wire: bad center dimension");
  }
  const std::string* stats =
      frame.stats.has_value() ? &*frame.stats : nullptr;
  if (stats != nullptr) {
    MMPH_REQUIRE(stats->size() <= kMaxPayloadBytes,
                 "wire: stats blob exceeds kMaxPayloadBytes");
  }
  out.push_back(static_cast<std::uint8_t>(frame.status));
  // Flags byte (v1's has_centers): bit0 = centers follow, bit1 = stats
  // blob follows the centers.
  const std::uint8_t flags =
      static_cast<std::uint8_t>((centers != nullptr ? 1 : 0) |
                                (stats != nullptr ? 2 : 0));
  out.push_back(flags);
  le::put_u16(out, centers != nullptr
                   ? static_cast<std::uint16_t>(centers->dim())
                   : 0);
  le::put_u32(out, centers != nullptr
                   ? static_cast<std::uint32_t>(centers->size())
                   : 0);
  le::put_u64(out, frame.epoch);
  le::put_f64(out, frame.objective);
  if (centers != nullptr) {
    for (const double c : centers->raw()) le::put_f64(out, c);
  }
  if (stats != nullptr) {
    le::put_u32(out, static_cast<std::uint32_t>(stats->size()));
    out.insert(out.end(), stats->begin(), stats->end());
  }
  patch_payload_len(out, header_start);
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t n) {
  if (poisoned_) return;  // stream is dead; don't grow the buffer
  buffer_.insert(buffer_.end(), data, data + n);
}

FrameDecoder::Result FrameDecoder::next() {
  Result result;
  if (poisoned_) {
    result.status = poison_status_;
    result.request_id = poison_request_id_;
    return result;
  }
  const auto fail = [&](DecodeStatus status) {
    poisoned_ = true;
    poison_status_ = status;
    poison_request_id_ = result.request_id;
    buffer_.clear();
    offset_ = 0;
    result.status = status;
    return result;
  };

  if (buffered() < kHeaderBytes) return result;  // kNeedMoreData
  const std::uint8_t* head = buffer_.data() + offset_;
  le::Cursor header(head, kHeaderBytes);
  const std::uint32_t magic = header.u32();
  const std::uint8_t version = header.u8();
  const std::uint8_t type_byte = header.u8();
  const std::uint16_t reserved = header.u16();
  const std::uint64_t request_id = header.u64();
  const std::uint32_t payload_len = header.u32();
  result.request_id = request_id;

  if (magic != kMagic) return fail(DecodeStatus::kBadMagic);
  if (version != kWireVersion) return fail(DecodeStatus::kBadVersion);
  if (type_byte < static_cast<std::uint8_t>(FrameType::kAddUsers) ||
      type_byte > static_cast<std::uint8_t>(FrameType::kReplOps)) {
    return fail(DecodeStatus::kBadType);
  }
  if (reserved != 0) return fail(DecodeStatus::kMalformedPayload);
  if (payload_len > kMaxPayloadBytes) {
    return fail(DecodeStatus::kOversizedFrame);
  }
  if (buffered() < kHeaderBytes + payload_len) return result;  // incomplete

  const auto type = static_cast<FrameType>(type_byte);
  le::Cursor body(head + kHeaderBytes, payload_len);
  switch (type) {
    case FrameType::kAddUsers: {
      const std::uint32_t count = body.u32();
      const std::uint16_t dim = body.u16();
      if (!body.ok() || count == 0) {
        return fail(DecodeStatus::kMalformedPayload);
      }
      if (count > kMaxBatchCount) return fail(DecodeStatus::kOversizedBatch);
      if (dim == 0 || dim > kMaxDim) return fail(DecodeStatus::kBadDimension);
      // Exact-size check before the element loop: a consistent frame has
      // no trailing bytes and no short records.
      const std::uint64_t need =
          static_cast<std::uint64_t>(count) * (16 + 8ull * dim);
      if (body.remaining() != need) {
        return fail(DecodeStatus::kMalformedPayload);
      }
      result.request.users.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        serve::UserRecord user;
        user.id = body.u64();
        user.weight = body.f64();
        if (!finite(user.weight) || user.weight <= 0.0) {
          return fail(DecodeStatus::kMalformedPayload);
        }
        user.interest.resize(dim);
        for (std::uint16_t d = 0; d < dim; ++d) {
          user.interest[d] = body.f64();
          if (!finite(user.interest[d])) {
            return fail(DecodeStatus::kMalformedPayload);
          }
        }
        result.request.users.push_back(std::move(user));
      }
      break;
    }
    case FrameType::kRemoveUsers: {
      const std::uint32_t count = body.u32();
      if (!body.ok()) return fail(DecodeStatus::kMalformedPayload);
      if (count > kMaxBatchCount) return fail(DecodeStatus::kOversizedBatch);
      if (body.remaining() != 8ull * count) {
        return fail(DecodeStatus::kMalformedPayload);
      }
      result.request.ids.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        result.request.ids.push_back(body.u64());
      }
      break;
    }
    case FrameType::kQueryPlacement:
    case FrameType::kStats:
      if (payload_len != 0) return fail(DecodeStatus::kMalformedPayload);
      break;
    case FrameType::kReplSubscribe:
      if (payload_len != 8) return fail(DecodeStatus::kMalformedPayload);
      result.request.have_epoch = body.u64();
      break;
    case FrameType::kReplSnapshot: {
      result.repl.epoch = body.u64();
      result.repl.flags = body.u8();
      const std::uint32_t blob_len = body.u32();
      if (!body.ok() ||
          result.repl.flags > (kReplChunkFirst | kReplChunkLast) ||
          body.remaining() != blob_len) {
        return fail(DecodeStatus::kMalformedPayload);
      }
      const std::uint8_t* blob = head + kHeaderBytes + (payload_len - blob_len);
      result.repl.blob.assign(blob, blob + blob_len);
      result.repl.type = type;
      result.repl.request_id = request_id;
      result.is_repl = true;
      break;
    }
    case FrameType::kReplOps: {
      result.repl.epoch = body.u64();
      result.repl.count = body.u32();
      const std::uint32_t blob_len = body.u32();
      if (!body.ok() || result.repl.count == 0 ||
          result.repl.count > kMaxBatchCount ||
          body.remaining() != blob_len) {
        return fail(DecodeStatus::kMalformedPayload);
      }
      const std::uint8_t* blob = head + kHeaderBytes + (payload_len - blob_len);
      result.repl.blob.assign(blob, blob + blob_len);
      result.repl.type = type;
      result.repl.request_id = request_id;
      result.is_repl = true;
      break;
    }
    case FrameType::kEvaluate: {
      const std::uint32_t count = body.u32();
      const std::uint16_t dim = body.u16();
      if (!body.ok()) return fail(DecodeStatus::kMalformedPayload);
      if (count > kMaxBatchCount) return fail(DecodeStatus::kOversizedBatch);
      if (dim == 0 || dim > kMaxDim) return fail(DecodeStatus::kBadDimension);
      if (body.remaining() != 8ull * count * dim) {
        return fail(DecodeStatus::kMalformedPayload);
      }
      geo::PointSet centers(dim);
      centers.reserve(count);
      std::vector<double> row(dim);
      for (std::uint32_t i = 0; i < count; ++i) {
        for (std::uint16_t d = 0; d < dim; ++d) {
          row[d] = body.f64();
          if (!finite(row[d])) return fail(DecodeStatus::kMalformedPayload);
        }
        centers.push_back(geo::ConstVec(row.data(), row.size()));
      }
      result.request.centers = std::move(centers);
      break;
    }
    case FrameType::kResponse: {
      const std::uint8_t status = body.u8();
      const std::uint8_t flags = body.u8();
      const std::uint16_t dim = body.u16();
      const std::uint32_t count = body.u32();
      result.response.epoch = body.u64();
      result.response.objective = body.f64();
      if (!body.ok()) return fail(DecodeStatus::kMalformedPayload);
      // kConnectionLost is deliberately above the cut: it is synthesized
      // by the client for locally-failed slots, never decoded off a wire.
      if (status > static_cast<std::uint8_t>(WireStatus::kInternalError) ||
          flags > 3) {
        return fail(DecodeStatus::kMalformedPayload);
      }
      if (!finite(result.response.objective)) {
        return fail(DecodeStatus::kMalformedPayload);
      }
      result.response.status = static_cast<WireStatus>(status);
      const bool has_centers = (flags & 1) != 0;
      const bool has_stats = (flags & 2) != 0;
      if (has_centers) {
        if (count > kMaxBatchCount) {
          return fail(DecodeStatus::kOversizedBatch);
        }
        if (dim == 0 || dim > kMaxDim) {
          return fail(DecodeStatus::kBadDimension);
        }
        if (body.remaining() < 8ull * count * dim) {
          return fail(DecodeStatus::kMalformedPayload);
        }
        geo::PointSet centers(dim);
        centers.reserve(count);
        std::vector<double> row(dim);
        for (std::uint32_t i = 0; i < count; ++i) {
          for (std::uint16_t d = 0; d < dim; ++d) {
            row[d] = body.f64();
            if (!finite(row[d])) {
              return fail(DecodeStatus::kMalformedPayload);
            }
          }
          centers.push_back(geo::ConstVec(row.data(), row.size()));
        }
        result.response.centers = std::move(centers);
      } else if (dim != 0 || count != 0) {
        return fail(DecodeStatus::kMalformedPayload);
      }
      if (has_stats) {
        const std::uint32_t stats_len = body.u32();
        if (!body.ok() || body.remaining() != stats_len) {
          return fail(DecodeStatus::kMalformedPayload);
        }
        std::string stats(stats_len, '\0');
        for (std::uint32_t i = 0; i < stats_len; ++i) {
          stats[i] = static_cast<char>(body.u8());
        }
        result.response.stats = std::move(stats);
      }
      // Exact-size check: a consistent frame has no trailing bytes.
      if (body.remaining() != 0) {
        return fail(DecodeStatus::kMalformedPayload);
      }
      result.response.request_id = request_id;
      result.is_response = true;
      break;
    }
  }
  if (!body.ok()) return fail(DecodeStatus::kMalformedPayload);

  result.request.type = type;
  result.request.request_id = request_id;
  result.status = DecodeStatus::kOk;
  offset_ += kHeaderBytes + payload_len;
  // Reclaim the consumed prefix once it dominates the buffer.
  if (offset_ > buffer_.size() / 2 && offset_ >= kHeaderBytes) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(offset_));
    offset_ = 0;
  }
  return result;
}

}  // namespace mmph::net
