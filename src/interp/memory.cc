#include "interp/memory.h"

#include <cassert>
#include <cstring>

namespace statsym::interp {

ObjId Memory::alloc(std::int64_t size, ObjLabel label) {
  assert(size > 0);
  const auto base = static_cast<std::int64_t>(bytes_.size());
  bytes_.resize(bytes_.size() + static_cast<std::size_t>(size), 0);
  objects_.push_back(Object{base, size, label});
  return static_cast<ObjId>(objects_.size() - 1);
}

ObjId Memory::alloc_string(const std::string& s, ObjLabel label) {
  const ObjId id = alloc(static_cast<std::int64_t>(s.size()) + 1, label);
  fill(id, s);
  return id;
}

std::string Memory::c_string(ObjId id, std::int64_t off) const {
  assert(valid(id));
  const std::int64_t n = c_strlen(id, off);
  if (n <= 0) return {};
  const auto* p = bytes_.data() + objects_[id].base + off;
  return std::string(reinterpret_cast<const char*>(p),
                     static_cast<std::size_t>(n));
}

std::int64_t Memory::c_strlen(ObjId id, std::int64_t off) const {
  assert(valid(id) && off >= 0);
  const Object& o = objects_[id];
  if (off >= o.size) return 0;
  const auto* p = bytes_.data() + o.base + off;
  const auto len = static_cast<std::size_t>(o.size - off);
  const void* nul = std::memchr(p, 0, len);
  return nul == nullptr
             ? static_cast<std::int64_t>(len)
             : static_cast<const std::uint8_t*>(nul) - p;
}

void Memory::fill(ObjId id, const std::string& s) {
  assert(valid(id));
  assert(static_cast<std::int64_t>(s.size()) <= size(id));
  if (s.empty()) return;
  std::memcpy(bytes_.data() + objects_[id].base, s.data(), s.size());
}

}  // namespace statsym::interp
