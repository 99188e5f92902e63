#include "kcc/image.hpp"

#include "common/byte_io.hpp"

namespace kshot::kcc {

const Symbol* KernelImage::find_symbol(const std::string& name) const {
  for (const auto& s : symbols) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const GlobalSym* KernelImage::find_global(const std::string& name) const {
  for (const auto& g : globals) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

const Symbol* KernelImage::symbol_at(u64 addr) const {
  for (const auto& s : symbols) {
    if (addr >= s.addr && addr < s.addr + s.size) return &s;
  }
  return nullptr;
}

Result<ByteSpan> KernelImage::function_span(const Symbol& sym) const {
  if (sym.addr < text_base || sym.addr - text_base > text.size() ||
      sym.size > text.size() - (sym.addr - text_base)) {
    return {Errc::kOutOfRange, "symbol '" + sym.name + "' lies outside text"};
  }
  return ByteSpan(text).subspan(sym.addr - text_base, sym.size);
}

Result<Bytes> KernelImage::function_bytes(const std::string& name) const {
  const Symbol* s = find_symbol(name);
  if (!s) return {Errc::kNotFound, "symbol '" + name + "' not in image"};
  auto body = function_span(*s);
  if (!body) return body.status();
  return to_bytes(*body);
}

Bytes KernelImage::data_image() const {
  ByteWriter w;
  for (const auto& g : globals) w.put_u64(static_cast<u64>(g.init));
  return w.take();
}

crypto::Digest256 KernelImage::measurement() const {
  ByteWriter w;
  w.put_u64(text_base);
  w.put_u64(data_base);
  w.put_bytes(text);
  w.put_bytes(data_image());
  return crypto::sha256(w.bytes());
}

}  // namespace kshot::kcc
