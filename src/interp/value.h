// Concrete runtime values for the mini-IR: 64-bit integers and references
// into bounds-checked byte buffers.
#pragma once

#include <cstdint>
#include <string>

namespace statsym::interp {

using ObjId = std::int32_t;
inline constexpr ObjId kNullObj = -1;

struct Value {
  enum class Kind : std::uint8_t { kInt, kRef };

  // Field order packs the struct into 24 bytes (registers are copied on
  // nearly every interpreted instruction).
  Kind kind{Kind::kInt};
  ObjId obj{kNullObj};  // object id (Kind::kRef)
  std::int64_t i{0};    // integer payload (Kind::kInt)
  std::int64_t off{0};  // offset within the object (Kind::kRef)

  static Value make_int(std::int64_t v) { return {Kind::kInt, kNullObj, v, 0}; }
  static Value make_ref(ObjId o, std::int64_t off = 0) {
    return {Kind::kRef, o, 0, off};
  }
  static Value null_ref() { return make_ref(kNullObj); }

  bool is_int() const { return kind == Kind::kInt; }
  bool is_ref() const { return kind == Kind::kRef; }
  bool is_null_ref() const { return is_ref() && obj == kNullObj; }

  // Branch condition semantics: ints are truthy when non-zero, refs when
  // non-null (mirrors C pointer tests like `if (p)`).
  bool truthy() const { return is_int() ? (i != 0) : (obj != kNullObj); }

  bool operator==(const Value& o) const = default;
};

std::string to_string(const Value& v);

}  // namespace statsym::interp
