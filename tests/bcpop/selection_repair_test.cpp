// bcpop::solve_with_selection (COBRA's basket repair) keeps useful coverage
// up to date per addition instead of recomputing every bundle's coverage
// every round. The oracle below is the from-scratch repair it replaced; the
// two must agree bit for bit on every selection, including partial ones,
// already-feasible ones, ones a single bundle short of a cover, and runs a
// max_rounds cap stops early.
//
// Labeled sanitizer-critical: the repair now borrows the context's greedy
// scratch, so ASan checks it against instances of different shapes reusing
// one EvalContext.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "carbon/bcpop/eval_core.hpp"
#include "carbon/common/rng.hpp"
#include "carbon/cover/generator.hpp"
#include "carbon/cover/greedy.hpp"

namespace carbon::bcpop {
namespace {

/// The from-scratch repair: every round recomputes each unselected bundle's
/// useful coverage against the residual, then adds the best coverage per
/// cost.
[[nodiscard]] cover::SolveResult scratch_repair(
    const cover::Instance& ll, std::span<const std::uint8_t> selection,
    const cover::GreedyOptions& greedy) {
  cover::SolveResult solved;
  solved.selection.assign(selection.begin(), selection.end());
  solved.selection.resize(ll.num_bundles(), 0);
  std::vector<int> residual = ll.residual_demand(solved.selection);
  long long outstanding = 0;
  for (int r : residual) outstanding += r;
  long long additions = 0;
  while (outstanding > 0) {
    if (greedy.max_rounds > 0 && additions >= greedy.max_rounds) {
      solved.rounds_capped = true;
      solved.value = ll.selection_cost(solved.selection);
      return solved;
    }
    ++additions;
    double best_ratio = -1.0;
    std::size_t best_j = ll.num_bundles();
    for (std::size_t j = 0; j < ll.num_bundles(); ++j) {
      if (solved.selection[j]) continue;
      const auto row = ll.bundle(j);
      long long useful = 0;
      for (std::size_t k = 0; k < ll.num_services(); ++k) {
        if (residual[k] > 0 && row[k] > 0) {
          useful += std::min(row[k], residual[k]);
        }
      }
      if (useful <= 0) continue;
      const double ratio =
          static_cast<double>(useful) / std::max(ll.cost(j), 1e-9);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best_j = j;
      }
    }
    if (best_j == ll.num_bundles()) {
      solved.value = ll.selection_cost(solved.selection);
      return solved;
    }
    solved.selection[best_j] = 1;
    const auto row = ll.bundle(best_j);
    for (std::size_t k = 0; k < ll.num_services(); ++k) {
      if (residual[k] > 0 && row[k] > 0) {
        const int used = std::min(row[k], residual[k]);
        residual[k] -= used;
        outstanding -= used;
      }
    }
  }
  solved.feasible = true;
  solved.value = ll.selection_cost(solved.selection);
  return solved;
}

void expect_same(const cover::SolveResult& want, const cover::SolveResult& got,
                 const std::string& label) {
  ASSERT_EQ(want.feasible, got.feasible) << label;
  ASSERT_EQ(want.rounds_capped, got.rounds_capped) << label;
  ASSERT_EQ(want.selection, got.selection) << label;
  ASSERT_EQ(std::bit_cast<std::uint64_t>(want.value),
            std::bit_cast<std::uint64_t>(got.value))
      << label;
}

[[nodiscard]] Instance make_market(std::uint64_t seed, double tightness,
                                   int max_quantity) {
  cover::GeneratorConfig cfg;
  cfg.num_bundles = 45;
  cfg.num_services = 7;
  cfg.tightness = tightness;
  cfg.max_quantity = max_quantity;
  cfg.seed = seed;
  return Instance(cover::generate(cfg), /*num_owned=*/5);
}

[[nodiscard]] Pricing random_pricing(common::Rng& rng, const Instance& inst) {
  Pricing p;
  for (const auto& b : inst.price_bounds()) p.push_back(rng.uniform(b.lo, b.hi));
  return p;
}

/// Selections the repair meets in COBRA, plus the edge cases: empty, full,
/// random partial, and a minimal cover with one bundle dropped.
[[nodiscard]] std::vector<std::vector<std::uint8_t>> selections(
    common::Rng& rng, const cover::Instance& ll) {
  const std::size_t m = ll.num_bundles();
  std::vector<std::vector<std::uint8_t>> out;
  out.emplace_back(m, 0);
  out.emplace_back(m, 1);
  for (const double p : {0.05, 0.2, 0.5}) {
    std::vector<std::uint8_t> s(m, 0);
    for (auto& b : s) b = rng.chance(p) ? 1 : 0;
    out.push_back(std::move(s));
  }
  // A redundancy-free cover: dropping any one bundle leaves it short.
  const cover::SolveResult cover =
      cover::greedy_solve(ll, cover::cost_effectiveness_score);
  out.push_back(cover.selection);
  for (std::size_t j = 0; j < m; ++j) {
    if (!cover.selection[j]) continue;
    std::vector<std::uint8_t> short_one = cover.selection;
    short_one[j] = 0;
    out.push_back(std::move(short_one));
  }
  out.emplace_back(m / 2, 1);  // shorter than m: padded with zeros
  return out;
}

TEST(SelectionRepair, MatchesFromScratchRepair) {
  common::Rng rng(2024);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Instance inst =
        make_market(seed, seed % 2 == 0 ? 0.95 : 0.4, seed % 3 == 0 ? 1 : 999);
    EvalContext ctx(inst);
    for (int rep = 0; rep < 3; ++rep) {
      Pricing pricing = random_pricing(rng, inst);
      if (rep == 0) pricing.assign(pricing.size(), 0.0);  // free bundles
      const cover::Instance ll = inst.lower_level_instance(pricing);
      for (const auto& selection : selections(rng, ll)) {
        const cover::SolveResult got = solve_with_selection(
            ctx, cover::Relaxation{}, pricing, selection);
        const std::string label =
            "seed " + std::to_string(seed) + " rep " + std::to_string(rep);
        expect_same(scratch_repair(ll, selection, {}), got, label);
        EXPECT_TRUE(got.feasible) << label;
        EXPECT_TRUE(ll.feasible(got.selection)) << label;
      }
    }
  }
}

TEST(SelectionRepair, MatchesFromScratchRepairUnderRoundCap) {
  common::Rng rng(7);
  const Instance inst = make_market(9, 0.9, 999);
  EvalContext ctx(inst);
  const Pricing pricing = random_pricing(rng, inst);
  const cover::Instance ll = inst.lower_level_instance(pricing);
  int capped = 0;
  for (const long long cap : {1LL, 2LL, 5LL, 1000LL}) {
    cover::GreedyOptions opts;
    opts.max_rounds = cap;
    for (const auto& selection : selections(rng, ll)) {
      const cover::SolveResult want = scratch_repair(ll, selection, opts);
      const cover::SolveResult got =
          solve_with_selection(ctx, cover::Relaxation{}, pricing, selection,
                               opts);
      expect_same(want, got, "cap " + std::to_string(cap));
      capped += got.rounds_capped ? 1 : 0;
    }
  }
  EXPECT_GT(capped, 0);  // the cap really tripped
}

TEST(SelectionRepair, ContextReuseAcrossSolvesIsStateless) {
  // The repair borrows the context's greedy scratch, which heuristic solves
  // on the same context also use; interleaving them must change nothing.
  common::Rng rng(5);
  const Instance inst = make_market(3, 0.7, 999);
  EvalContext shared(inst);
  const gp::Tree tree = gp::parse("(div QCOV COST)");
  const gp::CompiledProgram program = gp::CompiledProgram::compile(tree);
  for (int rep = 0; rep < 5; ++rep) {
    const Pricing pricing = random_pricing(rng, inst);
    const cover::Relaxation relax = solve_relaxation(shared, pricing);
    (void)solve_with_program(shared, relax, pricing, program, false);
    std::vector<std::uint8_t> selection(inst.num_bundles(), 0);
    for (auto& b : selection) b = rng.chance(0.1) ? 1 : 0;
    EvalContext fresh(inst);
    expect_same(
        solve_with_selection(fresh, relax, pricing, selection),
        solve_with_selection(shared, relax, pricing, selection),
        "rep " + std::to_string(rep));
  }
}

}  // namespace
}  // namespace carbon::bcpop
