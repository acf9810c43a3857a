// Wilson score-interval math, shared by the Eq. 2 fitter and every consumer
// that gates on confidence-adjusted scores.
//
// This is the single home of the binomial-bound arithmetic: predicate
// fitting (stats/predicate.cc) computes Predicate::score_lcb with gap_lcb()
// at kWilsonZ, and guidance's injection gate (statsym/guidance.cc) reads
// that stored bound, so the two can never drift apart.
#pragma once

#include <cstddef>

namespace statsym::stats {

// The z of every Wilson bound the pipeline acts on: Predicate::score_lcb is
// fitted at it, and guidance gates injection on that stored bound.
inline constexpr double kWilsonZ = 2.0;

// Wilson score interval bounds for a binomial proportion: the smallest /
// largest true p consistent (at z standard errors) with observing phat * n
// successes in n trials. z = 0 degenerates to phat; n = 0 returns the
// uninformative bound (0 for lower, 1 for upper).
double wilson_lower(double phat, std::size_t n, double z);
double wilson_upper(double phat, std::size_t n, double z);

// Lower confidence bound on the class-probability gap |pf − pc|: the larger
// side's Wilson lower bound minus the smaller side's upper bound, clamped at
// 0. This is what Predicate::score_lcb stores.
double gap_lcb(double pc, std::size_t nc, double pf, std::size_t nf,
               double z);

}  // namespace statsym::stats
