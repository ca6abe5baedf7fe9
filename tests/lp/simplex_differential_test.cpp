// Dense-vs-sparse differential test: the sparse simplex kernels must be
// BIT-identical to the dense reference kernels (use_dense_kernels) on every
// outcome class — optimal, degenerate, redundant-row, infeasible, unbounded —
// with and without warm starts. Not "close": identical. Skipping a `+= 0.0`
// term (or a rank-1 update scaled by an exact zero) is IEEE-exact, so any
// difference in any output bit is a kernel bug, and EXPECT_EQ on doubles is
// the correct comparison.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "carbon/common/rng.hpp"
#include "carbon/cover/generator.hpp"
#include "carbon/cover/relaxation.hpp"
#include "carbon/lp/simplex.hpp"

namespace carbon::lp {
namespace {

SimplexOptions dense_opts() {
  SimplexOptions o;
  o.use_dense_kernels = true;
  return o;
}

void expect_bitwise_equal(const Solution& sparse, const Solution& dense) {
  ASSERT_EQ(sparse.status, dense.status);
  EXPECT_EQ(sparse.iterations, dense.iterations);
  EXPECT_EQ(sparse.objective, dense.objective);
  ASSERT_EQ(sparse.x.size(), dense.x.size());
  for (std::size_t j = 0; j < sparse.x.size(); ++j) {
    EXPECT_EQ(sparse.x[j], dense.x[j]) << "x[" << j << "]";
  }
  ASSERT_EQ(sparse.duals.size(), dense.duals.size());
  for (std::size_t i = 0; i < sparse.duals.size(); ++i) {
    EXPECT_EQ(sparse.duals[i], dense.duals[i]) << "dual[" << i << "]";
  }
  ASSERT_EQ(sparse.reduced_costs.size(), dense.reduced_costs.size());
  for (std::size_t j = 0; j < sparse.reduced_costs.size(); ++j) {
    EXPECT_EQ(sparse.reduced_costs[j], dense.reduced_costs[j])
        << "reduced_cost[" << j << "]";
  }
}

/// Solves `p` both ways (cold and, when an optimal basis emerges, warm) and
/// asserts bitwise agreement of every output, including the exported basis.
void differential_check(const Problem& p) {
  Basis sparse_basis;
  Basis dense_basis;
  const Solution sparse = solve(p, {}, &sparse_basis);
  const Solution dense = solve(p, dense_opts(), &dense_basis);
  expect_bitwise_equal(sparse, dense);
  EXPECT_EQ(sparse_basis.status, dense_basis.status);
  EXPECT_EQ(sparse_basis.basic_vars, dense_basis.basic_vars);

  if (sparse.optimal() && !sparse_basis.empty()) {
    // Warm-start both modes from the basis the cold solves agreed on; the
    // warm path (refactorize + pivots from the installed basis) must agree
    // bitwise too.
    Basis warm_sparse = sparse_basis;
    Basis warm_dense = sparse_basis;
    const Solution again_sparse = solve(p, {}, &warm_sparse);
    const Solution again_dense = solve(p, dense_opts(), &warm_dense);
    EXPECT_TRUE(again_sparse.warm_start_used);
    EXPECT_TRUE(again_dense.warm_start_used);
    expect_bitwise_equal(again_sparse, again_dense);
  }
}

/// Random bounded LP shaped like the covering relaxations (n >> m, sparse
/// non-negative integer coefficients, >= rows) but with knobs to hit every
/// outcome class.
Problem random_lp(common::Rng& rng, std::size_t m, std::size_t n,
                  double density, bool integer_coeffs) {
  Problem p;
  for (std::size_t j = 0; j < n; ++j) {
    const double cost = rng.uniform(-5.0, 100.0);
    const double hi = rng.chance(0.8) ? 1.0 : kInfinity;
    p.add_variable(cost, 0.0, hi);
  }
  for (std::size_t i = 0; i < m; ++i) {
    std::vector<double> row(n, 0.0);
    double total = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (!rng.chance(density)) continue;
      row[j] = integer_coeffs ? std::floor(rng.uniform(1.0, 20.0))
                              : rng.uniform(0.1, 10.0);
      total += row[j];
    }
    const auto sense = rng.chance(0.7)   ? RowSense::kGreaterEqual
                       : rng.chance(0.5) ? RowSense::kLessEqual
                                         : RowSense::kEqual;
    p.add_constraint(row, sense, rng.uniform(0.1, 0.4) * total);
  }
  return p;
}

TEST(SimplexDifferential, RandomizedBoundedLps) {
  common::Rng rng(20240806);
  const struct {
    std::size_t m, n;
    double density;
  } grid[] = {{3, 12, 0.3},  {5, 30, 0.2},  {8, 40, 0.5},
              {10, 80, 0.1}, {15, 60, 0.25}, {20, 150, 0.08}};
  for (const auto& g : grid) {
    for (int rep = 0; rep < 6; ++rep) {
      const Problem p =
          random_lp(rng, g.m, g.n, g.density, /*integer_coeffs=*/rep % 2 == 0);
      differential_check(p);
    }
  }
}

TEST(SimplexDifferential, DegenerateVertices) {
  // Many constraints active at the same point (rhs ties) force degenerate
  // pivots; both modes must stall and recover identically.
  common::Rng rng(7);
  for (int rep = 0; rep < 8; ++rep) {
    Problem p;
    const std::size_t n = 10;
    for (std::size_t j = 0; j < n; ++j) {
      p.add_variable(rng.uniform(1.0, 10.0), 0.0, 1.0);
    }
    for (std::size_t i = 0; i < 6; ++i) {
      std::vector<double> row(n, 0.0);
      for (std::size_t j = 0; j < n; ++j) {
        if (rng.chance(0.4)) row[j] = 1.0;  // identical coefficients => ties
      }
      p.add_constraint(row, RowSense::kGreaterEqual, 2.0);
    }
    differential_check(p);
  }
}

TEST(SimplexDifferential, RedundantRows) {
  // Duplicate rows leave artificials pinned on redundant equality rows in
  // Phase 1; purge_artificials must behave identically in both modes.
  common::Rng rng(11);
  for (int rep = 0; rep < 8; ++rep) {
    Problem p;
    const std::size_t n = 8;
    for (std::size_t j = 0; j < n; ++j) {
      p.add_variable(rng.uniform(1.0, 10.0), 0.0, 2.0);
    }
    std::vector<double> row(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.chance(0.5)) row[j] = std::floor(rng.uniform(1.0, 5.0));
    }
    p.add_constraint(row, RowSense::kEqual, 3.0);
    p.add_constraint(row, RowSense::kEqual, 3.0);  // exact duplicate
    std::vector<double> row2(n, 1.0);
    p.add_constraint(row2, RowSense::kGreaterEqual, 1.0);
    differential_check(p);
  }
}

TEST(SimplexDifferential, InfeasibleLps) {
  common::Rng rng(13);
  for (int rep = 0; rep < 8; ++rep) {
    Problem p;
    const std::size_t n = 6;
    for (std::size_t j = 0; j < n; ++j) {
      p.add_variable(rng.uniform(1.0, 10.0), 0.0, 1.0);
    }
    std::vector<double> row(n, 0.0);
    double total = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      row[j] = std::floor(rng.uniform(1.0, 5.0));
      total += row[j];
    }
    // Demand exceeds what the bounded variables can supply.
    p.add_constraint(row, RowSense::kGreaterEqual, total + 1.0);
    const Solution sparse = solve(p);
    const Solution dense = solve(p, dense_opts());
    EXPECT_EQ(sparse.status, SolveStatus::kInfeasible);
    EXPECT_EQ(dense.status, SolveStatus::kInfeasible);
    EXPECT_EQ(sparse.iterations, dense.iterations);
  }
}

TEST(SimplexDifferential, UnboundedLps) {
  common::Rng rng(17);
  for (int rep = 0; rep < 8; ++rep) {
    Problem p;
    const std::size_t n = 5;
    for (std::size_t j = 0; j < n; ++j) {
      // Negative cost + infinite upper bound => profitable ray.
      p.add_variable(-rng.uniform(1.0, 5.0), 0.0, kInfinity);
    }
    std::vector<double> row(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.chance(0.6)) row[j] = rng.uniform(0.5, 3.0);
    }
    p.add_constraint(row, RowSense::kGreaterEqual, 1.0);
    const Solution sparse = solve(p);
    const Solution dense = solve(p, dense_opts());
    EXPECT_EQ(sparse.status, SolveStatus::kUnbounded);
    EXPECT_EQ(dense.status, SolveStatus::kUnbounded);
    EXPECT_EQ(sparse.iterations, dense.iterations);
  }
}

TEST(SimplexDifferential, PaperClassRelaxationsFromTheBaselineBasis) {
  // The LPs the solvers actually price: paper classes 0, 4 and 8 at the
  // generator's default density of 0.75, each solve warm-started from the
  // RelaxationFamily baseline basis after rebinding the leader-owned prefix
  // (the first n/10 bundles), exactly as eval_core does. The production
  // path (shared pricing panel, reused SolveScratch) must match the dense
  // reference bitwise, saved basis included.
  for (const std::size_t cls : {0u, 4u, 8u}) {
    const cover::Instance inst = cover::make_paper_instance(cls);
    const cover::RelaxationFamily shared(inst);
    ASSERT_FALSE(shared.baseline_basis.empty()) << "class " << cls;
    ProblemFamily prod = shared.family;
    ProblemFamily dense = shared.family;
    SolveScratch prod_scratch;
    SolveScratch dense_scratch;
    const std::size_t owned = inst.num_bundles() / 10;
    common::Rng rng(900 + cls);
    for (int rep = 0; rep < 4; ++rep) {
      SCOPED_TRACE("class " + std::to_string(cls) + " rep " +
                   std::to_string(rep));
      std::vector<double> prices(owned);
      for (std::size_t j = 0; j < owned; ++j) {
        prices[j] = inst.cost(j) * rng.uniform(0.0, 3.0);
      }
      prod.rebind(prices);
      dense.rebind(prices);
      Basis prod_basis = shared.baseline_basis;
      Basis dense_basis = shared.baseline_basis;
      const Solution want =
          solve(dense, dense_opts(), &dense_basis, &dense_scratch);
      const Solution got = solve(prod, {}, &prod_basis, &prod_scratch);
      ASSERT_TRUE(got.optimal());
      EXPECT_TRUE(got.warm_start_used);
      expect_bitwise_equal(got, want);
      EXPECT_EQ(got.basis_saved, want.basis_saved);
      EXPECT_EQ(prod_basis.status, dense_basis.status);
      EXPECT_EQ(prod_basis.basic_vars, dense_basis.basic_vars);
    }
  }
}

TEST(SimplexDifferential, SparseSolveReportsSkippedWork) {
  // On a genuinely sparse instance the sparse kernels must report skipped
  // FTRAN MACs; the dense reference must report none (it does all the work).
  common::Rng rng(23);
  const Problem p = random_lp(rng, 12, 60, 0.15, /*integer_coeffs=*/true);
  Basis warm;
  const Solution sparse = solve(p, {}, &warm);
  const Solution dense = solve(p, dense_opts());
  ASSERT_EQ(sparse.status, dense.status);
  EXPECT_GT(sparse.ftran_nnz_skipped, 0);
  EXPECT_EQ(dense.ftran_nnz_skipped, 0);
  if (sparse.optimal() && !warm.empty()) {
    // Installing a warm basis always refactorizes once.
    const Solution again = solve(p, {}, &warm);
    EXPECT_TRUE(again.warm_start_used);
    EXPECT_GT(again.refactorizations, 0);
  }
}

}  // namespace
}  // namespace carbon::lp
