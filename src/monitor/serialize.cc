#include "monitor/serialize.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "support/strings.h"

namespace statsym::monitor {

std::string serialize(const RunLog& log) {
  std::ostringstream os;
  os << "run " << log.run_id << " " << (log.faulty ? "faulty" : "ok");
  if (log.faulty) os << " " << log.fault_function;
  os << "\n";
  if (log.records_considered > 0) {
    os << "seen " << log.records_considered << "\n";
  }
  for (const auto& rec : log.records) {
    os << "rec " << rec.loc << "\n";
    for (const auto& v : rec.vars) {
      os << "var " << var_kind_name(v.kind) << "|" << (v.is_len ? 1 : 0) << "|"
         << v.value << "|" << v.name << "\n";
    }
  }
  return os.str();
}

std::string serialize(const std::vector<RunLog>& logs) {
  std::string out;
  for (const auto& l : logs) out += serialize(l);
  return out;
}

namespace {

std::size_t digits(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 10; v /= 10) ++n;
  return n;
}

// Length of `os << v` for an integer: its decimal digits and a sign.
std::size_t int_len(std::int64_t v) {
  // Negate in unsigned arithmetic so INT64_MIN has a magnitude too.
  const auto mag = v < 0 ? 0 - static_cast<std::uint64_t>(v)
                         : static_cast<std::uint64_t>(v);
  return (v < 0 ? 1 : 0) + digits(mag);
}

// ostream's default double insertion is specified to format as if by
// printf("%g") at the stream's precision (6). Every monitored value is an
// integer or a string length, and %.6g prints an integral |v| < 1e6 as its
// plain digits (with the sign of -0); anything else is measured by printing.
std::size_t double_len(double v) {
  if (v > -1e6 && v < 1e6) {
    const auto i = static_cast<std::int64_t>(v);
    if (static_cast<double>(i) == v) {
      return (std::signbit(v) ? 1 : 0) +
             digits(static_cast<std::uint64_t>(i < 0 ? -i : i));
    }
  }
  char buf[40];
  return static_cast<std::size_t>(std::snprintf(buf, sizeof buf, "%.6g", v));
}

}  // namespace

std::size_t serialized_size(const RunLog& log) {
  // "run <id> <ok|faulty>[ <fault_function>]\n"
  std::size_t n = 4 + int_len(log.run_id) + 1 +
                  (log.faulty ? 6 + (log.fault_function.empty()
                                         ? 0
                                         : 1 + log.fault_function.size())
                              : 2) +
                  1;
  if (log.records_considered > 0) {
    n += 5 + int_len(log.records_considered) + 1;  // "seen <n>\n"
  }
  for (const auto& rec : log.records) {
    n += 4 + int_len(rec.loc) + 1;  // "rec <loc>\n"
    for (const auto& v : rec.vars) {
      // "var <kind>|<is_len>|<value>|<name>\n"
      n += 4 + std::string_view(var_kind_name(v.kind)).size() + 1 + 1 + 1 +
           double_len(v.value) + 1 + v.name.size() + 1;
    }
  }
  return n;
}

bool deserialize(const std::string& text, std::vector<RunLog>& out) {
  std::vector<RunLog> logs;
  RunLog* cur = nullptr;
  LogRecord* cur_rec = nullptr;

  for (std::string_view line : split(text, '\n')) {
    line = trim(line);
    if (line.empty()) continue;
    if (starts_with(line, "run ")) {
      const auto fields = split(line.substr(4), ' ');
      if (fields.size() < 2 || fields.size() > 3) return false;
      RunLog log;
      std::int64_t id = 0;
      if (!parse_i64(fields[0], id)) return false;
      log.run_id = static_cast<std::int32_t>(id);
      if (fields[1] == "faulty") {
        log.faulty = true;
        if (fields.size() == 3) log.fault_function = fields[2];
      } else if (fields[1] == "ok") {
        if (fields.size() != 2) return false;
      } else {
        return false;
      }
      logs.push_back(std::move(log));
      cur = &logs.back();
      cur_rec = nullptr;
    } else if (starts_with(line, "seen ")) {
      if (cur == nullptr || cur_rec != nullptr) return false;
      std::int64_t seen = 0;
      if (!parse_i64(trim(line.substr(5)), seen) || seen < 0) return false;
      cur->records_considered = seen;
    } else if (starts_with(line, "rec ")) {
      if (cur == nullptr) return false;
      std::int64_t loc = 0;
      if (!parse_i64(trim(line.substr(4)), loc) || loc < 0 ||
          loc > std::numeric_limits<LocId>::max()) {
        return false;
      }
      cur->records.push_back({static_cast<LocId>(loc), {}});
      cur_rec = &cur->records.back();
    } else if (starts_with(line, "var ")) {
      if (cur_rec == nullptr) return false;
      const auto fields = split(line.substr(4), '|');
      if (fields.size() != 4) return false;
      VarSample v;
      if (fields[0] == "GLOBAL") {
        v.kind = VarKind::kGlobal;
      } else if (fields[0] == "FUNCPARAM") {
        v.kind = VarKind::kParam;
      } else if (fields[0] == "RETURN") {
        v.kind = VarKind::kReturn;
      } else {
        return false;
      }
      if (fields[1] == "1") {
        v.is_len = true;
      } else if (fields[1] == "0") {
        v.is_len = false;
      } else {
        return false;
      }
      if (!parse_double(fields[2], v.value)) return false;
      if (fields[3].empty()) return false;
      v.name = fields[3];
      cur_rec->vars.push_back(std::move(v));
    } else {
      return false;
    }
  }
  out = std::move(logs);
  return true;
}

}  // namespace statsym::monitor
