// bcpop::Evaluator against the plain sequential oracle (eval_oracle.hpp):
// every entry point, at one participant and at several, on both fan-out
// engines, with the caches and the score memo in play, must reproduce the
// oracle's Evaluations bit for bit.
#include "bcpop/eval_oracle.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "carbon/bcpop/evaluator.hpp"
#include "carbon/cover/generator.hpp"
#include "carbon/ea/binary_ops.hpp"
#include "carbon/ea/real_ops.hpp"
#include "carbon/gp/generate.hpp"

namespace carbon::bcpop {
namespace {

using test::EvalOracle;

Instance make_instance() {
  cover::GeneratorConfig cfg;
  cfg.num_bundles = 30;
  cfg.num_services = 4;
  cfg.seed = 17;
  return Instance(cover::generate(cfg), /*num_owned=*/3);
}

std::vector<Pricing> random_pricings(const Instance& inst, std::size_t n,
                                     std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<Pricing> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(ea::random_real_vector(rng, inst.price_bounds()));
  }
  return out;
}

/// The evaluator geometries under test: one participant, several on the
/// work-stealing engine, several on the ThreadPool engine.
struct Geometry {
  const char* name;
  Evaluator::Options options;
};

std::vector<Geometry> geometries() {
  return {
      {"one participant", {.threads = 1}},
      {"4 workers, stealing", {.threads = 4}},
      {"3 workers, parallel_for",
       {.threads = 3, .sched = common::SchedKind::kParallelFor}},
  };
}

void expect_same(const std::vector<Evaluation>& want,
                 const std::vector<Evaluation>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(want[i] == got[i]) << "job " << i;
  }
}

TEST(EvalOracle, HeuristicBatchesMatchWithDuplicatesAndMemoHits) {
  const Instance inst = make_instance();
  common::Rng rng(23);
  std::vector<gp::Tree> trees;
  for (int t = 0; t < 4; ++t) trees.push_back(gp::generate_ramped(rng));
  const auto pricings = random_pricings(inst, 6, 5);
  std::vector<HeuristicJob> jobs;
  for (const auto& tree : trees) {
    for (const auto& p : pricings) {
      jobs.push_back({p, &tree, EvalPurpose::kLowerOnly});
      jobs.push_back({p, &tree, EvalPurpose::kBoth});
      jobs.push_back({p, &tree, EvalPurpose::kLowerOnly});  // batch dup
    }
  }
  for (const bool compiled : {true, false}) {
    EvalOracle oracle(inst, compiled);
    const std::vector<Evaluation> want = oracle.heuristic_batch(jobs);
    for (const Geometry& g : geometries()) {
      SCOPED_TRACE(std::string(g.name) + (compiled ? ", compiled" : ""));
      Evaluator eval(inst, g.options);
      eval.set_compiled_scoring(compiled);
      expect_same(want, eval.evaluate_heuristic_batch(jobs));
      // The repeat is answered by the cross-generation memo.
      expect_same(want, eval.evaluate_heuristic_batch(jobs));
      EXPECT_GT(eval.score_cache().hits(), 0);
      EXPECT_EQ(eval.ll_evaluations(), 2 * static_cast<long long>(jobs.size()));
    }
  }
}

TEST(EvalOracle, SelectionBatchesMatchUnderCacheChurn) {
  const Instance inst = make_instance();
  const auto pricings = random_pricings(inst, 8, 9);
  common::Rng rng(31);
  std::vector<std::vector<std::uint8_t>> genomes;
  for (int g = 0; g < 8; ++g) {
    genomes.push_back(ea::random_binary_vector(rng, inst.num_bundles(), 0.2));
  }
  std::vector<SelectionJob> jobs;
  for (int rep = 0; rep < 3; ++rep) {
    for (std::size_t i = 0; i < pricings.size(); ++i) {
      jobs.push_back({pricings[i], genomes[(i + rep) % genomes.size()],
                      EvalPurpose::kBoth});
    }
  }
  EvalOracle oracle(inst);
  const std::vector<Evaluation> want = oracle.selection_batch(jobs);
  for (Geometry g : geometries()) {
    SCOPED_TRACE(g.name);
    // A capacity-1 relaxation cache evicts on almost every miss.
    g.options.relaxation_cache_capacity = 1;
    Evaluator eval(inst, g.options);
    expect_same(want, eval.evaluate_selection_batch(jobs));
    EXPECT_EQ(eval.relaxations_solved() + eval.relaxation_cache_hits(),
              static_cast<long long>(jobs.size()));
  }
}

TEST(EvalOracle, ScalarEntryPointsMatch) {
  const Instance inst = make_instance();
  common::Rng rng(41);
  const gp::Tree tree = gp::generate_ramped(rng);
  const auto pricings = random_pricings(inst, 5, 77);
  const std::vector<std::uint8_t> sparse =
      ea::random_binary_vector(rng, inst.num_bundles(), 0.1);
  for (const Geometry& g : geometries()) {
    SCOPED_TRACE(g.name);
    EvalOracle oracle(inst);
    Evaluator eval(inst, g.options);
    for (const auto& p : pricings) {
      EXPECT_TRUE(oracle.heuristic(p, tree) ==
                  eval.evaluate_with_heuristic(p, tree));
      EXPECT_TRUE(oracle.selection(p, sparse) ==
                  eval.evaluate_with_selection(p, sparse));
      EXPECT_TRUE(oracle.score(p, cover::cost_effectiveness_score) ==
                  eval.evaluate_with_score(p, cover::cost_effectiveness_score));
      const cover::Relaxation want = oracle.relaxation(p);
      const auto got = eval.relaxation(p);
      EXPECT_EQ(want.lower_bound, got->lower_bound);  // bitwise
      EXPECT_EQ(want.duals, got->duals);
      EXPECT_EQ(want.relaxed_x, got->relaxed_x);
    }
    EXPECT_EQ(eval.ll_evaluations(),
              3 * static_cast<long long>(pricings.size()));
  }
}

}  // namespace
}  // namespace carbon::bcpop
