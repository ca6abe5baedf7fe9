// Tests for lp::detail::choose_entering and entering_direction, the
// simplex's entering-column rule, against an oracle: the pricing loop the
// solver ran before the rule was factored out, kept here verbatim apart from
// reading the reduced cost d_j from an array instead of computing it in
// place. Both must pick the same column and direction on every input —
// random statuses and bounds, ties (lowest index wins), NaN and signed-zero
// reduced costs, fixed variables, the all-ineligible case and Bland mode
// from the first pivot (bland_threshold = 0).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "carbon/common/rng.hpp"
#include "carbon/lp/simplex.hpp"

namespace carbon::lp {
namespace {

using detail::EnteringChoice;
using detail::VarStatus;

/// The oracle: Dantzig pricing with the switch to Bland's rule, exactly as
/// SimplexSolver::iterate wrote it inline.
EnteringChoice oracle(const std::vector<VarStatus>& status_,
                      const std::vector<double>& lower_,
                      const std::vector<double>& upper_,
                      const std::vector<double>& reduced,
                      const SimplexOptions& opt_, int phase_iterations) {
  const std::size_t n_total_ = status_.size();
  const bool bland = phase_iterations >= opt_.bland_threshold;
  std::size_t entering = n_total_;
  double entering_sigma = 0.0;
  double best_score = opt_.optimality_tol;
  for (std::size_t j = 0; j < n_total_; ++j) {
    if (status_[j] == VarStatus::kBasic) continue;
    if (lower_[j] == upper_[j]) continue;  // fixed variable
    const double d = reduced[j];
    double score = 0.0;
    double sigma = 0.0;
    if (status_[j] == VarStatus::kAtLower && d < -opt_.optimality_tol) {
      score = -d;
      sigma = 1.0;
    } else if (status_[j] == VarStatus::kAtUpper &&
               d > opt_.optimality_tol) {
      score = d;
      sigma = -1.0;
    } else {
      continue;
    }
    if (bland) {  // first eligible index
      entering = j;
      entering_sigma = sigma;
      break;
    }
    if (score > best_score) {
      best_score = score;
      entering = j;
      entering_sigma = sigma;
    }
  }
  return {entering, entering_sigma};
}

struct Case {
  std::vector<VarStatus> status;
  std::vector<double> lower, upper, d;
};

/// The production rule: directions from status and bounds, then the choice.
EnteringChoice choose(const Case& c, double optimality_tol, bool bland) {
  std::vector<double> dir(c.status.size());
  for (std::size_t j = 0; j < dir.size(); ++j) {
    dir[j] = detail::entering_direction(c.status[j], c.lower[j], c.upper[j]);
  }
  return detail::choose_entering(dir, c.d, optimality_tol, bland);
}

void expect_same_choice(const Case& c, const SimplexOptions& opt,
                        int phase_iterations) {
  const EnteringChoice want =
      oracle(c.status, c.lower, c.upper, c.d, opt, phase_iterations);
  const EnteringChoice got = choose(c, opt.optimality_tol,
                                    phase_iterations >= opt.bland_threshold);
  EXPECT_EQ(got.index, want.index);
  EXPECT_EQ(got.sigma, want.sigma);
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Random pricing state; reduced costs come from a small value set so ties,
/// signed zeros, values at exactly +-tol and NaNs all occur often.
Case random_case(common::Rng& rng, std::size_t n, double tol) {
  Case c;
  c.status.resize(n);
  c.lower.resize(n);
  c.upper.resize(n);
  c.d.resize(n);
  const double pool[] = {0.0, -0.0, tol, -tol, 1.0, -1.0, 2.5, -2.5,
                         1e-9, -1e-9, kNaN, -kNaN, kInfinity, -kInfinity};
  for (std::size_t j = 0; j < n; ++j) {
    const double u = rng.uniform(0.0, 1.0);
    c.status[j] = u < 0.45   ? VarStatus::kAtLower
                  : u < 0.85 ? VarStatus::kAtUpper
                             : VarStatus::kBasic;
    c.lower[j] = 0.0;
    c.upper[j] = rng.chance(0.1) ? 0.0 : (rng.chance(0.3) ? kInfinity : 1.0);
    c.d[j] = rng.chance(0.7)
                 ? pool[static_cast<std::size_t>(rng.uniform(0.0, 14.0)) % 14]
                 : rng.uniform(-3.0, 3.0);
  }
  return c;
}

TEST(EnteringChoice, MatchesOracleOnRandomStates) {
  common::Rng rng(2024);
  for (int rep = 0; rep < 4000; ++rep) {
    SimplexOptions opt;
    // A negative tolerance is nonsense for a solver but must not change
    // which column the rule picks.
    const double u = rng.uniform(0.0, 1.0);
    opt.optimality_tol = u < 0.2 ? 0.0 : (u < 0.3 ? -0.5 : 1e-7);
    opt.bland_threshold = rng.chance(0.3) ? 0 : 2000;
    // 0 included; ragged blocks of 8 and class-8 sized rows (n = 560).
    const std::size_t n = static_cast<std::size_t>(
        rng.uniform(0.0, rng.chance(0.1) ? 600.0 : 80.0));
    const Case c = random_case(rng, n, opt.optimality_tol);
    const int phase_iterations = rng.chance(0.2) ? 2500 : 3;
    SCOPED_TRACE("rep " + std::to_string(rep));
    expect_same_choice(c, opt, phase_iterations);
  }
}

TEST(EnteringChoice, TiesGoToTheLowestIndex) {
  SimplexOptions opt;
  Case c;
  c.status = {VarStatus::kBasic, VarStatus::kAtUpper, VarStatus::kAtLower,
              VarStatus::kAtUpper, VarStatus::kAtLower};
  c.lower.assign(5, 0.0);
  c.upper.assign(5, 1.0);
  c.d = {-9.0, 2.0, -2.0, 2.0, -2.0};  // four columns score 2.0
  expect_same_choice(c, opt, 0);
  const EnteringChoice got = choose(c, opt.optimality_tol, /*bland=*/false);
  EXPECT_EQ(got.index, 1u);
  EXPECT_EQ(got.sigma, -1.0);
}

TEST(EnteringChoice, NaNAndSignedZerosNeverEnter) {
  SimplexOptions opt;
  opt.optimality_tol = 0.0;
  Case c;
  c.status = {VarStatus::kAtLower, VarStatus::kAtUpper, VarStatus::kAtLower,
              VarStatus::kAtUpper, VarStatus::kAtLower};
  c.lower.assign(5, 0.0);
  c.upper.assign(5, 1.0);
  c.d = {kNaN, -kNaN, 0.0, -0.0, -0.0};
  for (const int threshold : {0, 2000}) {
    opt.bland_threshold = threshold;
    expect_same_choice(c, opt, 0);
    const EnteringChoice got =
        choose(c, opt.optimality_tol, /*bland=*/threshold == 0);
    EXPECT_EQ(got.index, c.status.size());
  }
  // A NaN before the best column must not hide it.
  c.d = {kNaN, 1.0, -0.5, kNaN, -3.0};
  opt.bland_threshold = 2000;
  expect_same_choice(c, opt, 0);
}

TEST(EnteringChoice, FixedAndBasicColumnsNeverEnter) {
  SimplexOptions opt;
  Case c;
  c.status = {VarStatus::kAtLower, VarStatus::kBasic, VarStatus::kAtUpper,
              VarStatus::kAtLower};
  c.lower = {0.0, 0.0, 0.0, 2.0};
  c.upper = {0.0, 1.0, 0.0, 2.0};  // 0, 2 and 3 fixed; 1 basic
  c.d = {-100.0, -100.0, 100.0, -100.0};
  for (const int threshold : {0, 2000}) {
    opt.bland_threshold = threshold;
    expect_same_choice(c, opt, 0);
    EXPECT_EQ(choose(c, opt.optimality_tol, /*bland=*/threshold == 0).index,
              c.status.size());
  }
}

TEST(EnteringChoice, BlandFromTheFirstPivotTakesTheFirstEligible) {
  SimplexOptions opt;
  opt.bland_threshold = 0;
  Case c;
  c.status = {VarStatus::kAtLower, VarStatus::kAtUpper, VarStatus::kAtLower,
              VarStatus::kAtUpper};
  c.lower.assign(4, 0.0);
  c.upper.assign(4, 1.0);
  c.d = {1.0, 0.5, -0.25, 9.0};  // eligible: 1 (upper, d > 0), 2, 3
  expect_same_choice(c, opt, 0);
  const EnteringChoice got = choose(c, opt.optimality_tol, /*bland=*/true);
  EXPECT_EQ(got.index, 1u);
  EXPECT_EQ(got.sigma, -1.0);
}

TEST(EnteringChoice, OneUlpAcrossBlocksStillWins) {
  // Scores 2.0 in the first block of 8 and the next double above 2.0 in the
  // second: the later, strictly greater score must win.
  SimplexOptions opt;
  Case c;
  c.status.assign(20, VarStatus::kAtUpper);
  c.lower.assign(20, 0.0);
  c.upper.assign(20, 1.0);
  c.d.assign(20, 1.0);
  c.d[3] = 2.0;
  c.d[13] = std::nextafter(2.0, 3.0);
  expect_same_choice(c, opt, 0);
  EXPECT_EQ(choose(c, opt.optimality_tol, /*bland=*/false).index, 13u);
  c.d[13] = 2.0;  // now a tie: the lower index keeps it
  expect_same_choice(c, opt, 0);
  EXPECT_EQ(choose(c, opt.optimality_tol, /*bland=*/false).index, 3u);
}

TEST(EnteringChoice, ScoresAtTheToleranceAreIneligible) {
  SimplexOptions opt;
  Case c;
  c.status = {VarStatus::kAtLower, VarStatus::kAtUpper};
  c.lower.assign(2, 0.0);
  c.upper.assign(2, 1.0);
  c.d = {-opt.optimality_tol, opt.optimality_tol};
  for (const int threshold : {0, 2000}) {
    opt.bland_threshold = threshold;
    expect_same_choice(c, opt, 0);
  }
  EXPECT_EQ(choose(c, opt.optimality_tol, /*bland=*/false).index, 2u);
}

}  // namespace
}  // namespace carbon::lp
