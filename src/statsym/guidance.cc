#include "statsym/guidance.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace statsym::core {

namespace {

// Free-run marker: a woken state is no longer guided (pure-symbolic
// fallback); encoded as a negative diverted count.
constexpr std::int32_t kFreeRun = -1;

// Only predicates whose *confidence-adjusted* score (score_lcb) clears this
// floor are acted on. Gating on the raw score let accidental separators
// fitted from a handful of sampled records through; injected as hard
// constraints they suspend every on-path state, so a starved log budget
// turned into guaranteed path-infeasibility misses.
constexpr double kPredicateScoreFloor = 0.5;

// Cap on per-byte constraints lowered from one length predicate.
constexpr std::int64_t kMaxLenConstraint = 4096;

}  // namespace

std::optional<double> gate_score_lcb(const stats::Predicate& p,
                                     const GuidanceOptions& opts) {
  if (!opts.inject_predicates) return std::nullopt;
  if (p.pk == stats::PredKind::kUnreached) return std::nullopt;  // negative
  if (p.score_lcb < kPredicateScoreFloor) return std::nullopt;
  return p.score_lcb;
}

// Samples the ranker's probes during one replay and lowers each
// predicate's gap; stops the run once every probed gap is 0.
class FrontierRanker::Sampler final : public interp::InterpListener {
 public:
  Sampler(const FrontierRanker& ranker, std::vector<double>& out)
      : m_(ranker.program_.module()),
        preds_(ranker.preds_),
        probes_(ranker.probes_),
        open_(ranker.num_probed_),
        out_(out) {}

  void on_enter(const interp::Interpreter& interp, const ir::Function& fn,
                std::span<const interp::Value> params) override {
    sample(interp, monitor::enter_loc(id(fn)), params, nullptr);
  }
  void on_leave(const interp::Interpreter& interp, const ir::Function& fn,
                std::span<const interp::Value> params,
                const std::optional<interp::Value>& ret) override {
    sample(interp, monitor::leave_loc(id(fn)), params,
           ret.has_value() ? &*ret : nullptr);
  }

 private:
  // `fn` is always an element of m_.functions(), so its id is its offset.
  ir::FuncId id(const ir::Function& fn) const {
    return static_cast<ir::FuncId>(&fn - m_.functions().data());
  }

  void sample(const interp::Interpreter& interp, monitor::LocId loc,
              std::span<const interp::Value> params,
              const interp::Value* ret) {
    for (const Probe& probe : probes_[static_cast<std::size_t>(loc)]) {
      double& gap = out_[probe.pred];
      if (gap == 0.0) continue;
      const stats::Predicate& p = preds_[probe.pred];
      auto take = [&](const interp::Value& v) {
        // Strings are recorded by length, as Monitor::record does.
        if (v.is_ref() != p.is_len) return;
        const double x = v.is_ref()
                             ? static_cast<double>(interp.string_length(v))
                             : static_cast<double>(v.i);
        gap = p.holds(x) ? 0.0 : std::min(gap, 1.0 + std::abs(x - p.threshold));
      };
      switch (probe.kind) {
        case monitor::VarKind::kGlobal:
          for (const std::size_t g : probe.slots) take(interp.globals()[g]);
          break;
        case monitor::VarKind::kParam:
          for (const std::size_t k : probe.slots) {
            if (k < params.size()) take(params[k]);
          }
          break;
        case monitor::VarKind::kReturn:
          if (ret != nullptr) take(*ret);
          break;
      }
      if (gap == 0.0 && --open_ == 0) stop(interp);
    }
  }

  const ir::Module& m_;
  const std::vector<stats::Predicate>& preds_;
  const std::vector<std::vector<Probe>>& probes_;
  std::size_t open_;  // probed gaps not yet 0
  std::vector<double>& out_;
};

FrontierRanker::FrontierRanker(const ir::Module& m,
                               const stats::CandidatePath& path,
                               const std::vector<stats::Predicate>& predicates,
                               const GuidanceOptions& opts)
    : program_(m), probes_(monitor::num_locations(m)) {
  std::vector<std::pair<double, const stats::Predicate*>> gated;
  for (const stats::Predicate& p : predicates) {
    if (std::find(path.nodes.begin(), path.nodes.end(), p.loc) ==
        path.nodes.end()) {
      continue;
    }
    if (const auto lcb = gate_score_lcb(p, opts)) gated.emplace_back(*lcb, &p);
  }
  std::stable_sort(gated.begin(), gated.end(), [](const auto& a,
                                                  const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second->score > b.second->score;
  });
  preds_.reserve(gated.size());
  for (const auto& [lcb, p] : gated) {
    const std::size_t i = preds_.size();
    preds_.push_back(*p);
    // Resolve where the monitor records this variable at p->loc; a
    // predicate it never records keeps a gap of +∞ and gets no probe.
    if (p->loc < 0 || static_cast<std::size_t>(p->loc) >= probes_.size()) {
      continue;
    }
    const ir::Function& fn = m.function(monitor::loc_function(p->loc));
    const auto name = monitor::var_key_name(p->var, p->kind, p->is_len);
    if (ir::is_library_function(fn.name) || !name) continue;
    Probe probe{i, p->kind, {}};
    switch (p->kind) {
      case monitor::VarKind::kGlobal:
        for (std::size_t g = 0; g < m.globals().size(); ++g) {
          if (m.globals()[g].name == *name) probe.slots.push_back(g);
        }
        break;
      case monitor::VarKind::kParam:
        for (std::size_t k = 0; k < fn.param_names.size(); ++k) {
          if (fn.param_names[k] == *name) probe.slots.push_back(k);
        }
        break;
      case monitor::VarKind::kReturn:
        if (monitor::loc_is_leave(p->loc) && *name == "ret") {
          probe.slots.push_back(0);
        }
        break;
    }
    if (probe.slots.empty()) continue;
    probes_[static_cast<std::size_t>(p->loc)].push_back(std::move(probe));
    ++num_probed_;
  }
}

std::vector<double> FrontierRanker::gaps(
    const interp::RuntimeInput& in) const {
  std::vector<double> out(preds_.size(),
                          std::numeric_limits<double>::infinity());
  if (num_probed_ == 0) return out;
  Sampler sampler(*this, out);
  interp::Interpreter replay(program_, in);
  replay.set_listener(&sampler);
  replay.run();
  return out;
}

CandidateGuidance::CandidateGuidance(const ir::Module& m,
                                     stats::CandidatePath path,
                                     std::vector<stats::Predicate> predicates,
                                     GuidanceOptions opts)
    : m_(m), path_(std::move(path)), opts_(opts) {
  for (auto& p : predicates) {
    if (!gate_score_lcb(p, opts_).has_value()) continue;
    preds_by_loc_[p.loc].push_back(std::move(p));
  }
  for (std::size_t i = 0; i < path_.nodes.size(); ++i) {
    first_index_.try_emplace(path_.nodes[i], i);
  }
  // Collect the strongest length lower bound per variable across the whole
  // candidate path (see header for rationale).
  for (const monitor::LocId loc : path_.nodes) {
    auto pit = preds_by_loc_.find(loc);
    if (pit == preds_by_loc_.end()) continue;
    for (const stats::Predicate& p : pit->second) {
      if (!p.is_len || p.pk != stats::PredKind::kGt) continue;
      auto [it, inserted] = len_gt_max_.try_emplace(p.var, p.threshold);
      if (!inserted) it->second = std::max(it->second, p.threshold);
    }
  }
}

void CandidateGuidance::on_wake(symexec::State& st) {
  st.guide.diverted = kFreeRun;
}

symexec::GuidanceHook::Action CandidateGuidance::on_location(
    symexec::SymExecutor& ex, symexec::State& st, monitor::LocId loc) {
  if (st.guide.diverted == kFreeRun) return Action::kContinue;
  if (ir::is_library_function(m_.function(monitor::loc_function(loc)).name)) {
    return Action::kContinue;  // library-internal: invisible to statistics
  }

  const auto next = static_cast<std::size_t>(st.guide.next_node);
  if (next < path_.nodes.size() && path_.nodes[next] == loc) {
    ++st.guide.next_node;
    ++st.guide.matched;
    st.guide.diverted = 0;
    st.guide.alien_seen.clear();
    max_matched_ = std::max(max_matched_, st.guide.matched);
    if (!inject_at(ex, st, loc)) {
      ++conflict_susp_;
      return Action::kSuspend;
    }
    return Action::kContinue;
  }
  if (next >= path_.nodes.size()) {
    // Entire candidate path matched; run free toward the failure point.
    return Action::kContinue;
  }
  // Revisiting a location already matched earlier on the path is a loop or
  // recursion over on-path code (the candidate path is acyclic-ish while
  // real executions cycle); statistics place the location on the vulnerable
  // path, so it does not count as divergence. Only statistically-alien
  // locations consume hop budget.
  if (auto it = first_index_.find(loc);
      it != first_index_.end() && it->second < next) {
    return Action::kContinue;
  }
  // Re-visiting the same off-path location (a loop beside the candidate
  // path) is not additional divergence.
  auto& seen = st.guide.alien_seen;
  if (std::find(seen.begin(), seen.end(), loc) != seen.end()) {
    return Action::kContinue;
  }
  seen.push_back(loc);
  if (++st.guide.diverted > opts_.tau) {
    ++diverted_susp_;
    return Action::kSuspend;
  }
  return Action::kContinue;
}

bool CandidateGuidance::inject_at(symexec::SymExecutor& ex,
                                  symexec::State& st, monitor::LocId loc) {
  const bool leave = monitor::loc_is_leave(loc);
  const ir::FuncId fid = monitor::loc_function(loc);
  const ir::Function& fn = m_.function(fid);

  auto it = preds_by_loc_.find(loc);
  if (it == preds_by_loc_.end()) return true;

  for (const stats::Predicate& p : it->second) {
    const auto name = monitor::var_key_name(p.var, p.kind, p.is_len);
    if (!name) continue;
    symexec::SymValue val;
    bool have = false;
    switch (p.kind) {
      case monitor::VarKind::kParam: {
        // Parameter values are only available at entry (the frame is gone
        // by the time the leave event fires).
        if (leave) break;
        for (std::int32_t i = 0; i < fn.num_params; ++i) {
          if (fn.param_names[static_cast<std::size_t>(i)] == *name) {
            val = st.top().params[static_cast<std::size_t>(i)];
            have = true;
            break;
          }
        }
        break;
      }
      case monitor::VarKind::kGlobal: {
        for (std::size_t g = 0; g < m_.globals().size(); ++g) {
          if (m_.globals()[g].name == *name) {
            val = st.globals[g];
            have = true;
            break;
          }
        }
        break;
      }
      case monitor::VarKind::kReturn:
        break;  // return values are not injectable at this point
    }
    if (!have) continue;
    if (!inject_one(ex, st, p, val)) return false;
  }
  return true;
}

bool CandidateGuidance::inject_one(symexec::SymExecutor& ex,
                                   symexec::State& st,
                                   const stats::Predicate& p,
                                   const symexec::SymValue& val) {
  auto& pool = ex.pool();

  // A length predicate against a variable that is not (yet) a string —
  // e.g. a global pointer before its assignment — carries no information
  // about this program point; skip rather than conflict.
  if (p.is_len && !val.is_ref()) return true;

  if (p.is_len && val.is_ref()) {
    if (val.conc.is_null_ref()) return false;
    // Only lower-bound length predicates prune meaningfully: len(s) > σ
    // becomes "the first ⌊σ⌋+1 bytes are non-NUL". Upper bounds would be a
    // disjunction over NUL positions — no pruning power, so skipped.
    if (p.pk != stats::PredKind::kGt) return true;
    // Strengthen to the path-wide maximum for this variable (header note).
    double threshold = p.threshold;
    if (auto mit = len_gt_max_.find(p.var); mit != len_gt_max_.end()) {
      threshold = std::max(threshold, mit->second);
    }
    const auto obj = val.conc.obj;
    const std::int64_t off = val.conc.off;
    const std::int64_t need =
        std::min(static_cast<std::int64_t>(std::floor(threshold)) + 1,
                 kMaxLenConstraint);
    const std::int64_t size = st.mem.size(obj);
    // A string of length > σ cannot fit: conflict with the predicate.
    if (off + need > size - 1) return false;
    for (std::int64_t i = 0; i < need; ++i) {
      const symexec::SymByte b = st.mem.read(obj, off + i);
      if (!b.is_sym) {
        if (b.b == 0) return false;  // concretely shorter than σ
        continue;
      }
      if (!ex.add_constraint(st, pool.ne(b.e, pool.constant(0)))) {
        return false;
      }
    }
    return true;
  }

  if (val.is_concrete()) {
    if (!val.conc.is_int()) return true;  // untyped; nothing to constrain
    return p.holds(static_cast<double>(val.conc.i));
  }

  // Symbolic integer: integral form of the threshold comparison.
  solver::ExprId c = solver::kNoExpr;
  switch (p.pk) {
    case stats::PredKind::kGt:
      c = pool.ge(val.expr, pool.constant(static_cast<std::int64_t>(
                                std::floor(p.threshold)) +
                            1));
      break;
    case stats::PredKind::kLt:
      c = pool.le(val.expr, pool.constant(static_cast<std::int64_t>(
                                std::ceil(p.threshold)) -
                            1));
      break;
    case stats::PredKind::kUnreached:
      return true;
  }
  return ex.add_constraint(st, c);
}

}  // namespace statsym::core
