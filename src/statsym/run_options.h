// The user-facing run settings, shared by every front end (DESIGN.md §14):
// `statsym` flags (`--seed 7`, `-j 2`), serve `run` request fields
// (`seed|7`) and the one-shot side of the serve equivalence test. Their
// defaults are written here once; set() is the one validator and
// to_engine_options() the one mapping onto EngineOptions.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "statsym/engine.h"

namespace statsym::core {

struct RunOptions {
  std::uint64_t seed{42};
  std::size_t jobs{0};          // worker threads, 0 = all hardware threads
  double sampling{0.3};         // monitor sampling rate, (0,1]
  double time_s{300.0};         // per-candidate symbolic-execution budget
  std::size_t mem_mb{256};      // symbolic-execution memory budget
  std::size_t portfolio{4};     // candidate paths run concurrently
  std::vector<EngineKind> engines{EngineKind::kGuided};  // Phase-3 lanes
  bool static_analysis{true};   // `--no-static-analysis` clears it
  bool trace{false};    // serve: append the deterministic trace to the reply
  bool metrics{false};  // serve: append the metrics to the reply

  // The surface a key arrives on; each accepts its own subset of the keys.
  enum class Source : std::uint8_t { kFlag, kRequest };
  static bool accepts(std::string_view key, Source from);

  // Parses `value` strictly and stores it under `key`, leaving the options
  // unchanged on error. Returns "" or why not — "unknown flag", "unknown
  // request field" or "bad value '<value>' (want …)" — for the caller to
  // prefix with the key as the user spelled it.
  std::string set(std::string_view key, std::string_view value, Source from);

  EngineOptions to_engine_options() const;
};

}  // namespace statsym::core
