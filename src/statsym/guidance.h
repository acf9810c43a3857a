// Statistics-guided search: the candidate-path guidance hook (§V-C, §VI-C).
//
// Implements both guidance mechanisms of the paper on top of the symbolic
// executor's GuidanceHook interface:
//
//   * Inter-function search — every function entry/exit event is matched
//     against the candidate path. A state whose events diverge from the
//     path by more than τ hops is suspended (explored again only when no
//     guided state remains).
//
//   * Intra-function search — when an event matches the next candidate
//     node, the high-confidence predicates constructed for that location
//     are translated into path constraints and added to the state; states
//     that conflict with the predicates are suspended. String-length
//     predicates len(s) > σ are lowered to per-byte constraints
//     (s[0..⌊σ⌋] all non-NUL), the paper's footnote-2 workaround for
//     constraining string lengths.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "concolic/concolic.h"
#include "interp/program.h"
#include "monitor/monitor.h"
#include "stats/path_builder.h"
#include "symexec/executor.h"

namespace statsym::core {

struct GuidanceOptions {
  std::int32_t tau{10};  // hop-diversion threshold (paper default)
  bool inject_predicates{true};
};

// The predicate gate both lanes act on: with opts.inject_predicates, a
// fitted threshold predicate (not the kUnreached negative evidence) whose
// confidence-adjusted score — score_lcb, the Wilson lower bound on the
// Eq. 2 gap, fitted at stats::kWilsonZ — clears a fixed floor of 0.5.
// Returns that score_lcb, or nullopt when the predicate is not acted on.
std::optional<double> gate_score_lcb(const stats::Predicate& p,
                                     const GuidanceOptions& opts);

// Orders the concolic lane's frontier by the statistics (DESIGN.md §11).
// Holds the gated predicates at locations on the candidate path, highest
// score_lcb first (ties by score, then by the input order). gaps() replays an
// input concretely, on the module decoded once at construction, and returns
// one gap per predicate: 0 when the predicate holds for some value observed
// at its location, else 1 + |v − σ| for the closest value v, and +∞ when the
// location never records the variable. Each predicate is resolved once to
// where the monitor would record its variable — the global slot, the
// parameters of that name, or the return value at its location — and the
// replay samples only those values, as Monitor::record extracts them. It
// stops once every gap a sample could still lower is 0: a 0 never moves.
class FrontierRanker final : public concolic::FrontierRanker {
 public:
  // `m` must outlive the ranker.
  FrontierRanker(const ir::Module& m, const stats::CandidatePath& path,
                 const std::vector<stats::Predicate>& predicates,
                 const GuidanceOptions& opts);

  std::vector<double> gaps(const interp::RuntimeInput& in) const override;
  const std::vector<stats::Predicate>& predicates() const { return preds_; }

 private:
  // Where one predicate's variable is recorded at its location: global
  // slots or parameter indices holding its name, or (kReturn) the return
  // value.
  struct Probe {
    std::size_t pred{0};  // index into preds_
    monitor::VarKind kind{monitor::VarKind::kGlobal};
    std::vector<std::size_t> slots;
  };
  class Sampler;  // the replay's listener

  interp::Program program_;
  std::vector<stats::Predicate> preds_;
  // Probes by LocId; library functions' locations hold none, as the monitor
  // records nothing there.
  std::vector<std::vector<Probe>> probes_;
  std::size_t num_probed_{0};  // predicates with a probe
};

class CandidateGuidance final : public symexec::GuidanceHook {
 public:
  CandidateGuidance(const ir::Module& m, stats::CandidatePath path,
                    std::vector<stats::Predicate> predicates,
                    GuidanceOptions opts = {});

  Action on_location(symexec::SymExecutor& ex, symexec::State& st,
                     monitor::LocId loc) override;
  void on_wake(symexec::State& st) override;

  // Number of states this guidance suspended for diverging / conflicting.
  std::uint64_t diverted_suspensions() const { return diverted_susp_; }
  std::uint64_t conflict_suspensions() const { return conflict_susp_; }
  // Deepest candidate-path progress any state achieved (diagnostics).
  std::int32_t max_matched() const { return max_matched_; }

 private:
  // Injects the predicates registered at `loc` into the state; returns
  // false when the state conflicts with them.
  bool inject_at(symexec::SymExecutor& ex, symexec::State& st,
                 monitor::LocId loc);
  bool inject_one(symexec::SymExecutor& ex, symexec::State& st,
                  const stats::Predicate& p, const symexec::SymValue& val);

  const ir::Module& m_;
  stats::CandidatePath path_;
  // First occurrence of each location on the candidate path — used to
  // recognise benign revisits (loops/recursion over on-path code).
  std::unordered_map<monitor::LocId, std::size_t> first_index_;
  std::unordered_map<monitor::LocId, std::vector<stats::Predicate>>
      preds_by_loc_;
  // Strongest "len(x) > σ" threshold per variable across the whole
  // candidate path. When a node's own length predicate fires, it is
  // strengthened to this bound: a state that can never satisfy the
  // downstream length requirement is suspended at its *first* length check
  // rather than leaf-by-leaf after its intra-function fork subtree has
  // already exploded at the node carrying the tightest threshold.
  std::unordered_map<std::string, double> len_gt_max_;
  GuidanceOptions opts_;
  std::uint64_t diverted_susp_{0};
  std::uint64_t conflict_susp_{0};
  std::int32_t max_matched_{0};
};

}  // namespace statsym::core
