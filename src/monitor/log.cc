#include "monitor/log.h"

namespace statsym::monitor {

LocId enter_loc(ir::FuncId f) { return f * 2; }
LocId leave_loc(ir::FuncId f) { return f * 2 + 1; }
ir::FuncId loc_function(LocId loc) { return loc / 2; }
bool loc_is_leave(LocId loc) { return (loc & 1) != 0; }

std::string loc_name(const ir::Module& m, LocId loc) {
  if (loc == kNoLoc) return "<none>";
  return m.function(loc_function(loc)).name + "():" +
         (loc_is_leave(loc) ? "leave" : "enter");
}

std::size_t num_locations(const ir::Module& m) {
  return m.functions().size() * 2;
}

const char* var_kind_name(VarKind k) {
  switch (k) {
    case VarKind::kGlobal: return "GLOBAL";
    case VarKind::kParam: return "FUNCPARAM";
    case VarKind::kReturn: return "RETURN";
  }
  return "?";
}

std::string var_key(std::string_view name, VarKind kind, bool is_len) {
  std::string key;
  if (is_len) key += "len(";
  key += name;
  key += ' ';
  key += var_kind_name(kind);
  if (is_len) key += ')';
  return key;
}

std::optional<std::string_view> var_key_name(std::string_view key,
                                             VarKind kind, bool is_len) {
  if (is_len) {
    if (!key.starts_with("len(") || !key.ends_with(')')) return std::nullopt;
    key = key.substr(4, key.size() - 5);
  }
  const std::string_view suffix = var_kind_name(kind);
  if (key.size() <= suffix.size() || !key.ends_with(suffix) ||
      key[key.size() - suffix.size() - 1] != ' ') {
    return std::nullopt;
  }
  return key.substr(0, key.size() - suffix.size() - 1);
}

std::string VarSample::display() const { return var_key(name, kind, is_len); }

}  // namespace statsym::monitor
