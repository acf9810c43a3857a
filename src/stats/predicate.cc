#include "stats/predicate.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/strings.h"

namespace statsym::stats {

std::string Predicate::display() const {
  switch (pk) {
    case PredKind::kGt:
      return var + " > " + fmt_double(threshold, 1);
    case PredKind::kLt:
      return var + " < " + fmt_double(threshold, 1);
    case PredKind::kUnreached:
      return var + " < -infinity";
  }
  return var;
}

double Predicate::recompute_score_lcb(double confidence_z) const {
  if (pk == PredKind::kUnreached) {
    // Observation-rate gap: p_correct is the rate, faulty never observes.
    return gap_lcb(p_correct, n_correct, 0.0, n_faulty, confidence_z);
  }
  if (pk == PredKind::kGt &&
      threshold == -std::numeric_limits<double>::infinity()) {
    // "Reached at all" indicator: the faulty side's rate is the score
    // (faulty_runs / num_faulty_runs), not the per-sample p_faulty.
    return gap_lcb(0.0, n_correct, score, n_faulty, confidence_z);
  }
  return gap_lcb(p_correct, n_correct, p_faulty, n_faulty, confidence_z);
}

bool fit_predicate(const VarSuff& vs, std::size_t num_correct_runs,
                   std::size_t num_faulty_runs, Predicate& out,
                   double confidence_z) {
  out.loc = vs.loc;
  out.var = vs.var;
  out.kind = vs.kind;
  out.is_len = vs.is_len;

  if (vs.faulty_total == 0) {
    if (vs.correct_total == 0 || num_faulty_runs == 0) return false;
    // The location/variable is only ever observed on correct runs: faulty
    // executions abort before reaching it. Score is the observation-rate
    // difference between the classes.
    out.pk = PredKind::kUnreached;
    out.threshold = -std::numeric_limits<double>::infinity();
    out.p_correct = num_correct_runs == 0
                        ? 0.0
                        : static_cast<double>(vs.correct_runs) /
                              static_cast<double>(num_correct_runs);
    out.p_faulty = 0.0;
    out.score = out.p_correct;
    // |P ∩ C| with P = everything observed.
    out.error = static_cast<std::size_t>(vs.correct_total);
    out.n_correct = num_correct_runs;
    out.n_faulty = num_faulty_runs;
    out.score_lcb = out.recompute_score_lcb(confidence_z);
    return out.score > 0.0;
  }
  if (vs.correct_total == 0) {
    // Only observed in faulty runs; a trivial "reached at all" indicator.
    // Encode as value > -inf, which every observation satisfies.
    out.pk = PredKind::kGt;
    out.threshold = -std::numeric_limits<double>::infinity();
    out.p_correct = 0.0;
    out.p_faulty = 1.0;
    out.score = num_correct_runs == 0
                    ? 0.0
                    : static_cast<double>(vs.faulty_runs) /
                          static_cast<double>(num_faulty_runs);
    out.error = 0;
    out.n_correct = num_correct_runs;
    out.n_faulty = num_faulty_runs;
    out.score_lcb = out.recompute_score_lcb(confidence_z);
    return out.score > 0.0;
  }

  // Candidate thresholds: midpoints between adjacent distinct values of the
  // pooled sample. The histogram keys are exactly the distinct values; one
  // merged sweep pools them with each class's multiplicity.
  struct Point {
    double v;
    std::uint64_t c, f;
  };
  std::vector<Point> pts;
  pts.reserve(vs.correct.size() + vs.faulty.size());
  std::uint64_t c_all = 0, f_all = 0;
  auto ci = vs.correct.begin();
  auto fi = vs.faulty.begin();
  while (ci != vs.correct.end() || fi != vs.faulty.end()) {
    if (fi == vs.faulty.end() ||
        (ci != vs.correct.end() && ci->first < fi->first)) {
      pts.push_back({ci->first, ci->second, 0});
      ++ci;
    } else if (ci == vs.correct.end() || fi->first < ci->first) {
      pts.push_back({fi->first, 0, fi->second});
      ++fi;
    } else {
      pts.push_back({ci->first, ci->second, fi->second});
      ++ci;
      ++fi;
    }
    c_all += pts.back().c;
    f_all += pts.back().f;
  }
  if (pts.size() < 2) return false;  // identical distributions

  // The cuts ascend with the points, so the points strictly below a cut
  // (`lt`) and those not above it (`le`) are prefixes that only grow. A
  // cut can round onto one of its two points, so both are tracked against
  // the actual cut; the counts equal rescanning each histogram per cut.
  // (The one NaN cut, -inf next to +inf, has no other points: both
  // prefixes give it empty sides, as the strict tests do.)
  std::size_t lt = 0, le = 0;
  std::uint64_t c_lt = 0, f_lt = 0, c_le = 0, f_le = 0;
  bool found = false;
  std::size_t best_err = 0;
  double best_score = 0.0;
  for (std::size_t k = 0; k + 1 < pts.size(); ++k) {
    const double thr = (pts[k].v + pts[k + 1].v) / 2.0;
    for (; lt < pts.size() && pts[lt].v < thr; ++lt) {
      c_lt += pts[lt].c;
      f_lt += pts[lt].f;
    }
    for (; le < pts.size() && !(pts[le].v > thr); ++le) {
      c_le += pts[le].c;
      f_le += pts[le].f;
    }
    for (PredKind pk : {PredKind::kGt, PredKind::kLt}) {
      const std::uint64_t c_in = pk == PredKind::kGt ? c_all - c_le : c_lt;
      const std::uint64_t f_in = pk == PredKind::kGt ? f_all - f_le : f_lt;
      // Eq. 1: correct samples captured by P plus faulty samples missed.
      const std::size_t err =
          static_cast<std::size_t>(c_in + (vs.faulty_total - f_in));
      const double pc =
          static_cast<double>(c_in) / static_cast<double>(vs.correct_total);
      const double pf =
          static_cast<double>(f_in) / static_cast<double>(vs.faulty_total);
      const double score = std::abs(pc - pf);
      if (!found || err < best_err ||
          (err == best_err && score > best_score)) {
        found = true;
        best_err = err;
        best_score = score;
        out.pk = pk;
        out.threshold = thr;
        out.p_correct = pc;
        out.p_faulty = pf;
        out.score = score;
        out.error = err;
      }
    }
  }
  if (found) {
    out.n_correct = static_cast<std::size_t>(vs.correct_total);
    out.n_faulty = static_cast<std::size_t>(vs.faulty_total);
    out.score_lcb = out.recompute_score_lcb(confidence_z);
  }
  return found && out.score > 0.0;
}

}  // namespace statsym::stats
