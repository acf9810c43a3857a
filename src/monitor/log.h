// Runtime log data model.
//
// The program monitor logs program state at *instrumented locations* —
// function entry and exit points, exactly as the paper's Fjalar-based
// monitor does. At each location it records global variables, function
// parameters and (on exit) the return value. Integer variables are logged by
// value; string variables are logged by length ("len(x)"), matching the
// paper's privacy-preserving logging rules (§III-B) and the predicates of
// Table V.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ir/module.h"

namespace statsym::monitor {

// An instrumented location: (function, enter|leave). Encoded as
// func_id * 2 + (leave ? 1 : 0) so ids are stable across runs of the same
// module.
using LocId = std::int32_t;
inline constexpr LocId kNoLoc = -1;

LocId enter_loc(ir::FuncId f);
LocId leave_loc(ir::FuncId f);
ir::FuncId loc_function(LocId loc);
bool loc_is_leave(LocId loc);

// Pretty name in the paper's style: "convert_fileName():enter".
std::string loc_name(const ir::Module& m, LocId loc);

// Total number of instrumented locations in a module.
std::size_t num_locations(const ir::Module& m);

// Where a logged variable lives — mirrors the paper's GLOBAL / FUNCPARAM
// tags (Fig. 8) plus the return value.
enum class VarKind : std::uint8_t { kGlobal, kParam, kReturn };

const char* var_kind_name(VarKind k);

// Display key of a logged variable in the paper's style, e.g.
// "len(suspect FUNCPARAM)". Statistics identify a variable by (name, kind,
// is_len); this string is how predicates show and carry that identity.
std::string var_key(std::string_view name, VarKind kind, bool is_len);

// Inverse of var_key for a known kind and lens-ness: the name `key` was
// built from, or nullopt when var_key(name, kind, is_len) == key holds for
// no name. Lets a caller holding a key match samples by name without
// building a key per sample.
std::optional<std::string_view> var_key_name(std::string_view key,
                                             VarKind kind, bool is_len);

// One observed variable value. `is_len` marks string-typed variables logged
// as their C-string length.
struct VarSample {
  std::string name;
  VarKind kind{VarKind::kGlobal};
  bool is_len{false};
  double value{0.0};

  // var_key(name, kind, is_len), e.g. "len(suspect FUNCPARAM)".
  std::string display() const;

  bool operator==(const VarSample& o) const = default;
};

// Everything logged at one instrumented location hit.
struct LogRecord {
  LocId loc{kNoLoc};
  std::vector<VarSample> vars;
};

// One complete program run's (possibly partially sampled) log.
struct RunLog {
  std::int32_t run_id{0};
  bool faulty{false};
  std::string fault_function;  // non-empty for faulty runs
  // Instrumented-location hits the monitor considered, kept *or* dropped by
  // the sampling roll — records.size() / records_considered is the realised
  // sampling rate of this run.
  std::int64_t records_considered{0};
  std::vector<LogRecord> records;
};

}  // namespace statsym::monitor
