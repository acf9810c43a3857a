// The three benchmark workloads (README.md, "Workloads"). Each is a closed
// loop driven from this process: a client issues its next analysis only
// when the previous one has its verdict.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

// One analysis — a program analysed in-process, or one request to the
// service — as its client saw it.
struct Item {
  std::string label;            // target or request class, for cost tables
  double latency_ms{0.0};
  double done_ms{0.0};          // clock_ms() when the verdict arrived
  bool planted{false};          // ground truth: the program carries a fault
  bool detected{false};         // found, in the ground-truth function
  bool in_check_prefix{false};  // among the fixed first analyses of a pass
  std::string failure;          // non-empty: this analysis failed
};

// Per-layer sums over a pass, keyed by metric stem (README.md, "Per-layer
// metrics"): counts the program already exports, and wall times it measures
// itself (its *.seconds gauges, converted to ms).
using Sums = std::map<std::string, double>;

struct PassOptions {
  double seconds{0.0};         // keep issuing until this much time passed
  std::size_t min_items{0};    // ... and at least this many analyses ended
  std::size_t max_items{0};    // hard cap; 0 = none
  SpanRecorder* rec{nullptr};  // non-null: the traced pass
};

struct PassResult {
  std::vector<Item> items;
  double start_ms{0.0};  // clock_ms() when the pass began
  double wall_s{0.0};
  Sums sums;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Derives every program, input and request from the seed (and, for the
  // service, starts the server). Timed as setup_s.
  virtual void setup(std::uint64_t seed) = 0;
  virtual void teardown() {}
  virtual PassResult run(const PassOptions& opts) = 0;
  // Analyses in the fixed prefix that detect_ratio and the traced pass
  // cover, so their counts repeat exactly for one seed.
  virtual std::size_t check_items() const = 0;
  // Completions per block of the throughput metric (README.md): a whole
  // period of the workload's request mix where it has one, so every block
  // carries the same kind of work.
  virtual std::size_t throughput_block() const = 0;
};

std::unique_ptr<Workload> make_paper_guided();
std::unique_ptr<Workload> make_concolic_fleet();
// `work_dir` holds the service's socket.
std::unique_ptr<Workload> make_serve_fleet(const std::string& work_dir);

// The continue-condition every closed loop shares.
inline bool keep_going(const PassOptions& o, std::size_t done,
                       double elapsed_s) {
  if (o.max_items != 0 && done >= o.max_items) return false;
  return done < o.min_items || elapsed_s < o.seconds;
}

}  // namespace perfbench
