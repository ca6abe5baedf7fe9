// Tests for lp::PricingPanel: every panel dot product must equal the
// per-column ascending sparse sum BIT for bit (compared through
// std::bit_cast, so +0.0 vs -0.0 and NaN payloads count as differences).
// Covers ragged tile tails (1, 7, 8, 9 and 500 columns), a single row, empty
// columns and rows, coefficients whose sums cancel to exactly zero, and
// duals holding both signed zeros. Also pins the sharing contract of
// lp::ProblemFamily: copies share one panel and one set of constraints, and
// rebind() leaves both untouched.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "carbon/common/rng.hpp"
#include "carbon/lp/pricing_panel.hpp"
#include "carbon/lp/problem_family.hpp"

namespace carbon::lp {
namespace {

/// Reference: column j's stored entries summed in ascending row order from
/// +0.0, one multiply and one add per entry.
double sparse_dot(const Problem& p, std::size_t j, std::span<const double> y) {
  const SparseColumn& col = p.columns[j];
  double acc = 0.0;
  for (std::size_t k = 0; k < col.nnz(); ++k) {
    acc += col.values[k] * y[static_cast<std::size_t>(col.rows[k])];
  }
  return acc;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Asserts panel.dot_all(y) matches sparse_dot bitwise for every column and
/// leaves the output slots past the last column alone.
void expect_panel_matches(const Problem& p, std::span<const double> y) {
  const PricingPanel panel(p);
  ASSERT_EQ(panel.num_cols(), p.num_vars());
  ASSERT_EQ(panel.num_rows(), p.num_rows());
  EXPECT_EQ(panel.num_tiles(),
            (p.num_vars() + PricingPanel::kWidth - 1) / PricingPanel::kWidth);
  const double sentinel = 12345.5;
  std::vector<double> out(p.num_vars() + 3, sentinel);
  panel.dot_all(y, out);
  for (std::size_t j = 0; j < p.num_vars(); ++j) {
    EXPECT_EQ(bits(out[j]), bits(sparse_dot(p, j, y)))
        << "column " << j << ": panel " << out[j] << " vs sparse "
        << sparse_dot(p, j, y);
  }
  for (std::size_t j = p.num_vars(); j < out.size(); ++j) {
    EXPECT_EQ(out[j], sentinel) << "wrote past the last column";
  }
}

/// m x n problem; each entry nonzero with probability `density`, values
/// drawn from both signs. Columns listed in `empty_cols` and rows listed in
/// `empty_rows` get no entries at all.
Problem random_problem(common::Rng& rng, std::size_t m, std::size_t n,
                       double density,
                       const std::vector<std::size_t>& empty_cols = {},
                       const std::vector<std::size_t>& empty_rows = {}) {
  Problem p;
  for (std::size_t j = 0; j < n; ++j) p.add_variable(1.0, 0.0, 1.0);
  const auto listed = [](const std::vector<std::size_t>& v, std::size_t x) {
    for (const std::size_t e : v) {
      if (e == x) return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<RowEntry> entries;
    for (std::size_t j = 0; j < n; ++j) {
      if (listed(empty_cols, j) || listed(empty_rows, i)) continue;
      if (!rng.chance(density)) continue;
      entries.push_back({j, rng.uniform(-50.0, 50.0)});
    }
    p.add_constraint(entries, RowSense::kGreaterEqual, 0.0);
  }
  return p;
}

/// Duals with signed zeros mixed in: every third entry is +0.0 or -0.0.
std::vector<double> random_y(common::Rng& rng, std::size_t m) {
  std::vector<double> y(m);
  for (std::size_t i = 0; i < m; ++i) {
    switch (i % 3) {
      case 0:
        y[i] = rng.chance(0.5) ? 0.0 : -0.0;
        break;
      default:
        y[i] = rng.uniform(-3.0, 3.0);
        break;
    }
  }
  return y;
}

TEST(PricingPanel, RaggedTileTailsMatchSparseSums) {
  common::Rng rng(101);
  for (const std::size_t n : {1, 7, 8, 9, 500}) {
    for (const std::size_t m : {1, 5, 30}) {
      for (const double density : {0.1, 0.75, 1.0}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " m=" + std::to_string(m) +
                     " density=" + std::to_string(density));
        const Problem p = random_problem(rng, m, n, density);
        expect_panel_matches(p, random_y(rng, m));
      }
    }
  }
}

TEST(PricingPanel, EmptyColumnsAndRows) {
  common::Rng rng(202);
  // Column 3 is empty inside a full tile, columns 8..15 make a whole empty
  // tile, rows 0 and 4 are empty everywhere.
  const Problem p = random_problem(
      rng, 6, 20, 0.8, {3, 8, 9, 10, 11, 12, 13, 14, 15}, {0, 4});
  const std::vector<double> y = {1.5, -2.0, 0.25, -0.0, 7.0, 3.0};
  expect_panel_matches(p, y);

  const PricingPanel panel(p);
  std::vector<double> out(20, 1.0);
  panel.dot_all(y, out);
  for (std::size_t j = 8; j < 16; ++j) EXPECT_EQ(bits(out[j]), bits(0.0));
  EXPECT_EQ(bits(out[3]), bits(0.0));

  // A problem without any entry at all.
  expect_panel_matches(random_problem(rng, 3, 9, 0.0),
                       std::span<const double>(y).first(3));
  expect_panel_matches(random_problem(rng, 4, 11, 0.0),
                       std::vector<double>(4, -0.0));
}

TEST(PricingPanel, ExactCancellationStaysPositiveZero) {
  // Column 0 sums 2 - 2 = +0.0; its tile neighbours have entries in rows it
  // does not, so its accumulator also sees padded 0.0 * y terms, including
  // 0.0 * (negative) = -0.0. Column 1 sums 1.0 * -0.0 = -0.0 onto +0.0.
  // Column 2 cancels across three terms with y of mixed sign.
  Problem p;
  for (int j = 0; j < 9; ++j) p.add_variable(0.0, 0.0, 1.0);
  p.add_constraint({2.0, 1.0, 4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0},
                   RowSense::kGreaterEqual, 0.0);
  p.add_constraint({-2.0, 0.0, -6.0, 0.0, 3.0, 0.0, -1.0, 0.0, 0.0},
                   RowSense::kGreaterEqual, 0.0);
  p.add_constraint({0.0, 0.0, 2.0, 5.0, 0.0, 0.0, 0.0, 2.0, 0.0},
                   RowSense::kGreaterEqual, 0.0);
  p.add_constraint({0.0, 0.0, 0.0, -5.0, 0.0, 8.0, 0.0, 0.0, 0.0},
                   RowSense::kGreaterEqual, 0.0);
  {
    const std::vector<double> y = {1.0, 1.0, 1.0, -4.0};
    expect_panel_matches(p, y);
    const PricingPanel panel(p);
    std::vector<double> out(9);
    panel.dot_all(y, out);
    EXPECT_EQ(bits(out[0]), bits(0.0));  // +0.0, not -0.0
    EXPECT_EQ(bits(out[2]), bits(0.0));
  }
  {
    const std::vector<double> y = {-0.0, -0.0, -3.0, -0.0};
    expect_panel_matches(p, y);
    const PricingPanel panel(p);
    std::vector<double> out(9);
    panel.dot_all(y, out);
    EXPECT_EQ(bits(out[1]), bits(0.0));
  }
}

TEST(PricingPanel, RandomizedMatchesSparseSums) {
  common::Rng rng(303);
  for (int rep = 0; rep < 40; ++rep) {
    const std::size_t m = 1 + static_cast<std::size_t>(rng.uniform(0.0, 40.0));
    const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform(0.0, 90.0));
    const double density = rng.uniform(0.0, 1.0);
    SCOPED_TRACE("rep " + std::to_string(rep));
    const Problem p = random_problem(rng, m, n, density);
    expect_panel_matches(p, random_y(rng, m));
    // Integer-valued duals and coefficients make exact cancellations common.
    Problem q;
    for (std::size_t j = 0; j < n; ++j) q.add_variable(1.0, 0.0, 1.0);
    for (std::size_t i = 0; i < m; ++i) {
      std::vector<RowEntry> entries;
      for (std::size_t j = 0; j < n; ++j) {
        if (rng.chance(density)) {
          entries.push_back(
              {j, static_cast<double>(static_cast<int>(rng.uniform(-3, 4)))});
        }
      }
      q.add_constraint(entries, RowSense::kGreaterEqual, 0.0);
    }
    std::vector<double> y(m);
    for (auto& v : y) {
      v = static_cast<double>(static_cast<int>(rng.uniform(-2, 3)));
      if (v == 0.0 && rng.chance(0.5)) v = -0.0;
    }
    expect_panel_matches(q, y);
  }
}

TEST(PricingPanel, FamilyCopiesShareOnePanelAndRebindLeavesItAlone) {
  common::Rng rng(404);
  Problem p = random_problem(rng, 12, 45, 0.6);
  for (std::size_t j = 0; j < p.num_vars(); ++j) {
    p.objective[j] = rng.uniform(1.0, 10.0);
  }
  const ProblemFamily fam(p);
  ProblemFamily copy(fam);
  ProblemFamily assigned(random_problem(rng, 2, 3, 1.0));
  assigned = fam;

  // One panel and one set of constraints, shared by all three.
  EXPECT_EQ(&copy.panel(), &fam.panel());
  EXPECT_EQ(&assigned.panel(), &fam.panel());
  EXPECT_EQ(&copy.constraints(), &fam.constraints());
  EXPECT_EQ(&assigned.constraints(), &fam.constraints());

  const std::vector<double> y = random_y(rng, 12);
  std::vector<double> before(45);
  fam.panel().dot_all(y, before);
  const std::size_t entries = fam.panel().num_entries();

  const std::vector<double> prices = {0.5, 1.5, 2.5, 3.5};
  copy.rebind(prices);
  EXPECT_EQ(&copy.panel(), &fam.panel());
  EXPECT_EQ(copy.panel().num_entries(), entries);
  std::vector<double> after(45);
  copy.panel().dot_all(y, after);
  for (std::size_t j = 0; j < 45; ++j) {
    EXPECT_EQ(bits(after[j]), bits(before[j])) << "column " << j;
  }
  // The rebind moved the copy's objective only; constraints keep the
  // construction costs, and the original family's objective is unchanged.
  EXPECT_EQ(copy.objective()[0], 0.5);
  EXPECT_EQ(copy.objective()[4], p.objective[4]);
  EXPECT_EQ(fam.objective()[0], p.objective[0]);
  EXPECT_EQ(copy.constraints().objective[0], p.objective[0]);
  expect_panel_matches(copy.constraints(), y);
}

}  // namespace
}  // namespace carbon::lp
