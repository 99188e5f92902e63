// Little-endian binary serialization helpers used by the patch package
// format, the SMRAM save-state area, and wire protocols.
#pragma once

#include <string_view>

#include "common/status.hpp"
#include "common/types.hpp"

namespace kshot {

/// Appends little-endian scalars and raw bytes to a growable buffer.
class ByteWriter {
 public:
  void put_u8(u8 v) { buf_.push_back(v); }
  void put_u16(u16 v);
  void put_u32(u32 v);
  void put_u64(u64 v);
  void put_bytes(ByteSpan b) { buf_.insert(buf_.end(), b.begin(), b.end()); }
  void put_zeros(size_t n) { buf_.insert(buf_.end(), n, 0); }
  /// u8 length || bytes; a string longer than 255 bytes is cut to 255.
  void put_string8(std::string_view s);

  [[nodiscard]] size_t size() const { return buf_.size(); }
  [[nodiscard]] const Bytes& bytes() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Reads little-endian scalars from a span; all reads are bounds-checked.
class ByteReader {
 public:
  explicit ByteReader(ByteSpan data) : data_(data) {}

  [[nodiscard]] size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] size_t position() const { return pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ >= data_.size(); }

  Result<u8> get_u8();
  Result<u16> get_u16();
  Result<u32> get_u32();
  Result<u64> get_u64();
  /// Copies the next n bytes out; fails if fewer remain.
  Result<Bytes> get_bytes(size_t n);
  /// Returns a view of the next n bytes and advances.
  Result<ByteSpan> get_span(size_t n);
  /// Reads a put_string8 field as a view into the reader's span.
  Result<std::string_view> get_string8();
  Status skip(size_t n);

 private:
  ByteSpan data_;
  size_t pos_ = 0;
};

/// In-place little-endian scalar access over raw memory. Inline: the
/// decoder and the interpreter's loads and stores call these per step.
inline u16 load_u16(const u8* p) {
  return static_cast<u16>(p[0] | (static_cast<u16>(p[1]) << 8));
}

inline u32 load_u32(const u8* p) {
  u32 v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

inline u64 load_u64(const u8* p) {
  u64 v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

inline void store_u16(u8* p, u16 v) {
  p[0] = static_cast<u8>(v);
  p[1] = static_cast<u8>(v >> 8);
}

inline void store_u32(u8* p, u32 v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<u8>(v >> (8 * i));
}

inline void store_u64(u8* p, u64 v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<u8>(v >> (8 * i));
}

}  // namespace kshot
