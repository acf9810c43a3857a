// Concrete memory: a set of fixed-size byte objects addressed by (ObjId,
// offset). All accesses are bounds-checked by the interpreter; an
// out-of-bounds store is precisely the buffer-overflow fault the target
// applications contain.
//
// Objects live back to back in one arena, so an allocation is an append
// rather than a heap allocation of its own. Each object carries a compact
// ObjLabel naming where it came from; the human-readable form ("main:alloca",
// "argv1", ...) is rendered by the interpreter only when a fault message
// needs it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "interp/value.h"

namespace statsym::interp {

// Origin of a memory object. `index` is the allocating FuncId (kAlloca),
// the global slot (kGlobal), the argv position (kArgv) or the environment
// variable's position in RuntimeInput::env (kEnv); unused otherwise.
struct ObjLabel {
  enum class Kind : std::uint8_t {
    kNone,
    kAlloca,
    kStrConst,
    kGlobal,
    kArgv,
    kEnv,
  };
  Kind kind{Kind::kNone};
  std::int32_t index{0};
};

class Memory {
 public:
  // Allocates a zero-filled object of `size` bytes. size > 0.
  ObjId alloc(std::int64_t size, ObjLabel label = {});

  // Allocates an object holding `s` followed by a NUL byte.
  ObjId alloc_string(const std::string& s, ObjLabel label = {});

  bool valid(ObjId id) const {
    return id >= 0 && id < static_cast<ObjId>(objects_.size());
  }

  std::int64_t size(ObjId id) const { return objects_[id].size; }
  ObjLabel label(ObjId id) const { return objects_[id].label; }

  // Unchecked accessors; callers must have validated bounds.
  std::uint8_t read(ObjId id, std::int64_t addr) const {
    return bytes_[static_cast<std::size_t>(objects_[id].base + addr)];
  }
  void write(ObjId id, std::int64_t addr, std::uint8_t byte) {
    bytes_[static_cast<std::size_t>(objects_[id].base + addr)] = byte;
  }

  bool in_bounds(ObjId id, std::int64_t addr) const {
    return valid(id) && addr >= 0 && addr < objects_[id].size;
  }

  // C-string view starting at `off`: bytes up to (not including) the first
  // NUL, or to the end of the object if none. Used by the monitor to log
  // string lengths/contents.
  std::string c_string(ObjId id, std::int64_t off = 0) const;

  // Length of the C string at `off` (distance to first NUL, or bytes
  // remaining when unterminated).
  std::int64_t c_strlen(ObjId id, std::int64_t off = 0) const;

  // Overwrites the object's prefix with `s` (no NUL appended; the object
  // must be at least s.size() bytes).
  void fill(ObjId id, const std::string& s);

  std::size_t object_count() const { return objects_.size(); }
  std::size_t total_bytes() const { return bytes_.size(); }

 private:
  struct Object {
    std::int64_t base;  // offset of byte 0 in bytes_
    std::int64_t size;
    ObjLabel label;
  };
  std::vector<Object> objects_;
  std::vector<std::uint8_t> bytes_;
};

}  // namespace statsym::interp
