// Little-endian binary primitives for the on-disk storage formats.
//
// Mirrors the wire codec in net/protocol.cpp: integers are assembled
// byte-by-byte so the encoding never depends on host endianness, and
// doubles travel as raw IEEE-754 bits so contributions and rewards
// survive a save/recover cycle bit-exactly (the determinism contract
// of Storage::recover depends on this).
//
// Decoders throw std::invalid_argument on short or trailing bytes —
// the same "parse or throw, never crash" contract as the text parsers,
// which tests/fuzz_test.cpp exercises.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace itree::storage {

inline void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

inline void put_u32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

inline void put_u64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

inline void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Overwrites the four bytes at `pos` (a placeholder put earlier).
inline void patch_u32(std::string& out, std::size_t pos, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out[pos++] = static_cast<char>((v >> shift) & 0xff);
  }
}

/// Bounds-checked little-endian reader over one encoded payload.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(data_[pos_++]))
           << shift;
    }
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(data_[pos_++]))
           << shift;
    }
    return v;
  }

  double f64() { return std::bit_cast<double>(u64()); }

  std::string_view bytes(std::size_t n) {
    need(n);
    const std::string_view out = data_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  std::size_t remaining() const { return data_.size() - pos_; }

  void finish() const {
    if (remaining() != 0) {
      throw std::invalid_argument("storage codec: trailing bytes");
    }
  }

 private:
  void need(std::size_t n) const {
    if (remaining() < n) {
      throw std::invalid_argument("storage codec: truncated payload");
    }
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace itree::storage
