#include "common/byte_io.hpp"

namespace kshot {

void ByteWriter::put_u16(u16 v) {
  put_u8(static_cast<u8>(v));
  put_u8(static_cast<u8>(v >> 8));
}

void ByteWriter::put_u32(u32 v) {
  for (int i = 0; i < 4; ++i) put_u8(static_cast<u8>(v >> (8 * i)));
}

void ByteWriter::put_u64(u64 v) {
  for (int i = 0; i < 8; ++i) put_u8(static_cast<u8>(v >> (8 * i)));
}

void ByteWriter::put_string8(std::string_view s) {
  s = s.substr(0, 255);
  put_u8(static_cast<u8>(s.size()));
  put_bytes(ByteSpan(reinterpret_cast<const u8*>(s.data()), s.size()));
}

Result<u8> ByteReader::get_u8() {
  if (remaining() < 1) return {Errc::kOutOfRange, "read past end"};
  return data_[pos_++];
}

Result<u16> ByteReader::get_u16() {
  if (remaining() < 2) return {Errc::kOutOfRange, "read past end"};
  u16 v = load_u16(data_.data() + pos_);
  pos_ += 2;
  return v;
}

Result<u32> ByteReader::get_u32() {
  if (remaining() < 4) return {Errc::kOutOfRange, "read past end"};
  u32 v = load_u32(data_.data() + pos_);
  pos_ += 4;
  return v;
}

Result<u64> ByteReader::get_u64() {
  if (remaining() < 8) return {Errc::kOutOfRange, "read past end"};
  u64 v = load_u64(data_.data() + pos_);
  pos_ += 8;
  return v;
}

Result<Bytes> ByteReader::get_bytes(size_t n) {
  if (remaining() < n) return {Errc::kOutOfRange, "read past end"};
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

Result<ByteSpan> ByteReader::get_span(size_t n) {
  if (remaining() < n) return {Errc::kOutOfRange, "read past end"};
  ByteSpan out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

Result<std::string_view> ByteReader::get_string8() {
  auto len = get_u8();
  if (!len) return len.status();
  auto bytes = get_span(*len);
  if (!bytes) return bytes.status();
  return std::string_view(reinterpret_cast<const char*>(bytes->data()),
                          bytes->size());
}

Status ByteReader::skip(size_t n) {
  if (remaining() < n) return {Errc::kOutOfRange, "skip past end"};
  pos_ += n;
  return Status::ok();
}

}  // namespace kshot
