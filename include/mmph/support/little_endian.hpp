#pragma once

/// \file little_endian.hpp
/// \brief Little-endian primitives of every binary format in the tree: the
/// wire protocol (net/wire.cpp) and the WAL's record and snapshot codecs.
/// Byte-by-byte shifts, not memcpy of host integers, so each format reads
/// the same bytes on every host byte order.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mmph::le {

inline void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

inline void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

inline void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

inline void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-checked reader over one encoded buffer: every read checks
/// remaining() first, so a lying length field can never walk past the
/// buffer; ok_ latches false on the first short read.
class Cursor {
 public:
  Cursor(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }
  [[nodiscard]] bool ok() const noexcept { return ok_; }

  std::uint8_t u8() { return ok_ && take(1) ? data_[pos_ - 1] : 0; }

  std::uint16_t u16() {
    if (!ok_ || !take(2)) return 0;
    const std::uint8_t* p = data_ + pos_ - 2;
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
  }

  std::uint32_t u32() {
    if (!ok_ || !take(4)) return 0;
    const std::uint8_t* p = data_ + pos_ - 4;
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
  }

  std::uint64_t u64() {
    if (!ok_ || !take(8)) return 0;
    const std::uint8_t* p = data_ + pos_ - 8;
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
    return v;
  }

  double f64() { return std::bit_cast<double>(u64()); }

 private:
  bool take(std::size_t n) {
    if (remaining() < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace mmph::le
