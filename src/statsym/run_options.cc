#include "statsym/run_options.h"

#include <cmath>

#include "support/strings.h"

namespace statsym::core {

bool RunOptions::accepts(std::string_view key, Source from) {
  if (key == "seed" || key == "jobs" || key == "sampling") return true;
  if (from == Source::kRequest) return key == "trace" || key == "metrics";
  return key == "time" || key == "mem" || key == "engines";
}

std::string RunOptions::set(std::string_view key, std::string_view value,
                            Source from) {
  if (!accepts(key, from)) {
    return from == Source::kFlag ? "unknown flag" : "unknown request field";
  }
  RunOptions o = *this;  // committed only if the value is valid
  const char* want = nullptr;
  if (key == "seed") {
    if (!parse_u64(value, o.seed)) want = "an unsigned 64-bit integer";
  } else if (key == "jobs" || key == "mem") {
    if (!parse_count(value, key == "jobs" ? o.jobs : o.mem_mb)) {
      want = "a non-negative integer";
    }
  } else if (key == "sampling") {
    if (!parse_double(value, o.sampling) ||
        !(o.sampling > 0.0 && o.sampling <= 1.0)) {
      want = "a rate in (0,1]";
    }
  } else if (key == "time") {
    if (!parse_double(value, o.time_s) || !std::isfinite(o.time_s) ||
        o.time_s <= 0.0) {
      want = "seconds > 0";
    }
  } else if (key == "engines") {
    const auto parsed = parse_engines(value);
    if (!parsed.has_value()) want = "a comma list from guided|pure|concolic";
    o.engines = parsed.value_or(o.engines);
  } else {  // trace, metrics
    if (value != "0" && value != "1") want = "0 or 1";
    (key == "trace" ? o.trace : o.metrics) = value == "1";
  }
  if (want != nullptr) {
    return "bad value '" + std::string(value) + "' (want " + want + ")";
  }
  *this = std::move(o);
  return "";
}

EngineOptions RunOptions::to_engine_options() const {
  EngineOptions o;
  o.monitor.sampling_rate = sampling;
  o.seed = seed;
  o.candidate_timeout_seconds = time_s;
  o.exec.max_memory_bytes = mem_mb << 20;
  o.engines = engines;
  o.static_analysis = static_analysis;
  return o;
}

}  // namespace statsym::core
