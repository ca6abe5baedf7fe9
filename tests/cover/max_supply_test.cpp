// Instance::max_supply(k) is the largest single-bundle quantity of service
// k. The greedy's coverage updates skip a service's supplier walk while its
// residual stays at or above it, so a wrong maximum silently corrupts every
// useful-coverage column. Checked here against a brute-force column max on
// generated and hand-built instances, after copies, and after set_cost.
//
// Labeled sanitizer-critical: ASan checks the per-service array indexing on
// instances with unsupplied services and zero-bundle columns.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "carbon/cover/generator.hpp"
#include "carbon/cover/instance.hpp"

namespace carbon::cover {
namespace {

[[nodiscard]] int column_max(const Instance& inst, std::size_t k) {
  int best = 0;
  for (std::size_t j = 0; j < inst.num_bundles(); ++j) {
    best = std::max(best, inst.quantity(j, k));
  }
  return best;
}

void expect_column_maxima(const Instance& inst) {
  for (std::size_t k = 0; k < inst.num_services(); ++k) {
    EXPECT_EQ(inst.max_supply(k), column_max(inst, k)) << "service " << k;
    // No supplier exceeds it, and some supplier attains it.
    const auto qty = inst.supplier_quantities(k);
    for (const int q : qty) EXPECT_LE(q, inst.max_supply(k));
    if (!qty.empty()) {
      EXPECT_NE(std::find(qty.begin(), qty.end(), inst.max_supply(k)),
                qty.end());
    }
  }
}

TEST(MaxSupply, MatchesBruteForceColumnMaxOnGeneratedInstances) {
  std::uint64_t seed = 0;
  for (const double density : {0.15, 0.75, 1.0}) {
    for (const int max_quantity : {1, 7, 999}) {
      GeneratorConfig cfg;
      cfg.num_bundles = 50;
      cfg.num_services = 9;
      cfg.density = density;
      cfg.max_quantity = max_quantity;
      cfg.seed = ++seed;
      expect_column_maxima(generate(cfg));
    }
  }
  for (std::size_t c = 0; c < paper_classes().size(); ++c) {
    expect_column_maxima(make_paper_instance(c, 3));
  }
}

TEST(MaxSupply, HandBuiltColumnsIncludingUnsuppliedService) {
  const Instance inst({1.0, 2.0, 3.0},
                      {{4, 0, 0, 1}, {9, 0, 2, 1}, {9, 0, 5, 1}},
                      {10, 0, 3, 2});
  EXPECT_EQ(inst.max_supply(0), 9);  // tie between two suppliers
  EXPECT_EQ(inst.max_supply(1), 0);  // nobody supplies service 1
  EXPECT_EQ(inst.max_supply(2), 5);
  EXPECT_EQ(inst.max_supply(3), 1);
  expect_column_maxima(inst);
}

TEST(MaxSupply, SurvivesCopiesAndSetCost) {
  GeneratorConfig cfg;
  cfg.num_bundles = 30;
  cfg.num_services = 5;
  cfg.seed = 11;
  const Instance original = generate(cfg);

  Instance copy = original;  // copy construction
  expect_column_maxima(copy);
  for (std::size_t j = 0; j < copy.num_bundles(); ++j) {
    copy.set_cost(j, 0.5 * static_cast<double>(j));
  }
  expect_column_maxima(copy);  // prices never touch quantities

  Instance assigned;
  assigned = copy;  // copy assignment
  expect_column_maxima(assigned);
  for (std::size_t k = 0; k < original.num_services(); ++k) {
    EXPECT_EQ(assigned.max_supply(k), original.max_supply(k));
  }

  Instance moved = std::move(assigned);
  expect_column_maxima(moved);
}

}  // namespace
}  // namespace carbon::cover
