// Differential tests for the incremental (dirty-set) batched greedy: for
// every scorer regime — BRES-dependent (dense rescore every round),
// QCOV-only (dirty-set rescore), round-invariant (never rescored) — the
// selections, tie-breaks, and objective must be bit-identical to the dense
// per-bundle reference greedy_solve_with, and the GreedyBatchStats must
// show the work actually skipped. A full-supplier-walk oracle checks the
// max_supply skip rule of detail::select_bundle on instances whose
// residuals cross it.
//
// Labeled sanitizer-critical: the gather/scatter sub-batch path indexes
// compacted columns through the surviving-dirty list; ASan validates those
// bounds, and the scratch-reuse tests catch any state leaking between
// solves through a recycled GreedyScratch.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "carbon/common/rng.hpp"
#include "carbon/cover/generator.hpp"
#include "carbon/cover/greedy.hpp"
#include "carbon/cover/instance.hpp"
#include "carbon/gp/compiled.hpp"
#include "carbon/gp/generate.hpp"
#include "carbon/gp/scoring.hpp"
#include "carbon/gp/tree.hpp"

namespace carbon::cover {
namespace {

[[nodiscard]] std::uint64_t bits(double v) noexcept {
  return std::bit_cast<std::uint64_t>(v);
}

/// Small instances so the suite stays fast yet runs many greedy rounds.
[[nodiscard]] Instance small_instance(std::uint64_t seed,
                                      std::size_t bundles = 60,
                                      std::size_t services = 8) {
  GeneratorConfig cfg;
  cfg.num_bundles = bundles;
  cfg.num_services = services;
  cfg.tightness = 0.45;  // tighter demand -> more rounds -> more rescoring
  cfg.seed = seed;
  return generate(cfg);
}

/// LP-ish side inputs so DUAL and XBAR are exercised too.
struct SideInputs {
  std::vector<double> duals;
  std::vector<double> xbar;
};

[[nodiscard]] SideInputs side_inputs(common::Rng& rng, const Instance& inst) {
  SideInputs s;
  s.duals.resize(inst.num_services());
  s.xbar.resize(inst.num_bundles());
  for (auto& d : s.duals) d = rng.uniform(0.0, 2.0);
  for (auto& x : s.xbar) x = rng.uniform(0.0, 1.0);
  return s;
}

void expect_same_solve(const SolveResult& a, const SolveResult& b,
                       const char* label) {
  ASSERT_EQ(a.feasible, b.feasible) << label;
  ASSERT_EQ(a.selection, b.selection) << label;
  ASSERT_EQ(bits(a.value), bits(b.value)) << label;
}

TEST(GreedyIncremental, MatchesPerBundleReferenceAcrossRandomPrograms) {
  common::Rng rng(4242);
  GreedyScratch scratch;
  std::vector<double> reg_scratch;

  int dirty_regime_seen = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const Instance inst = small_instance(100 + trial);
    const SideInputs side = side_inputs(rng, inst);

    gp::GenerateConfig gen;
    const int depth = 3 + static_cast<int>(rng.below(3));
    gen.min_depth = depth;
    gen.max_depth = depth;
    const gp::Tree tree = gp::generate_full(rng, depth, gen);
    const gp::CompiledProgram program = gp::CompiledProgram::compile(tree);

    // Reference: per-bundle interpreter greedy (the paper's algorithm).
    const SolveResult ref = greedy_solve_with(
        inst, gp::make_score_function(tree), side.duals, side.xbar);

    // Incremental dirty-set greedy through the dependency-aware scorer.
    GreedyBatchStats stats;
    const SolveResult inc = greedy_solve_batched(
        inst, gp::CompiledBatchScorer(program, reg_scratch), side.duals,
        side.xbar, {}, &scratch, &stats);
    expect_same_solve(ref, inc, tree.to_string().c_str());

    // Dense batched baseline: the same program behind a plain lambda (not
    // TerminalAware), which forces a full rescore every round.
    std::vector<double> dense_scratch;
    const SolveResult dense = greedy_solve_batched(
        inst,
        [&](const BatchFeatureView& view, std::span<double> out) {
          program.evaluate_batch(gp::view_to_batch(view), out, dense_scratch);
        },
        side.duals, side.xbar);
    expect_same_solve(dense, inc, tree.to_string().c_str());

    // Stats must reflect the regime the program's terminals dictate.
    ASSERT_GT(stats.rounds, 0u);
    ASSERT_EQ(stats.rescore_slots, stats.rounds * inst.num_bundles());
    if (program.uses_terminal(gp::Terminal::kBres)) {
      EXPECT_EQ(stats.bundles_rescored, stats.rescore_slots)
          << tree.to_string();
    } else if (program.uses_terminal(gp::Terminal::kQcov)) {
      EXPECT_LE(stats.bundles_rescored, stats.rescore_slots);
      if (stats.rounds > 1) {
        EXPECT_LT(stats.rescored_frac(), 1.0) << tree.to_string();
        ++dirty_regime_seen;
      }
    } else {
      // Round-invariant: only the first dense round scores anything.
      EXPECT_EQ(stats.bundles_rescored, inst.num_bundles())
          << tree.to_string();
    }
  }
  // The generator must have produced at least a few multi-round QCOV-only
  // programs, or the dirty-set path went untested.
  EXPECT_GT(dirty_regime_seen, 0);
}

TEST(GreedyIncremental, QcovOnlyProgramsTakeTheDirtySetPath) {
  // Hand-built QCOV-dependent, BRES-free scorers covering div/mul/sub forms.
  const char* programs[] = {
      "(div QCOV COST)",
      "(sub (mul QCOV DUAL) COST)",
      "(add (div QCOV COST) (mul XBAR QCOV))",
      "(div (mul QCOV QCOV) (add COST QSUM))",
  };
  common::Rng rng(99);
  GreedyScratch scratch;
  std::vector<double> reg_scratch;
  for (const char* text : programs) {
    const gp::Tree tree = gp::parse(text);
    const gp::CompiledProgram program = gp::CompiledProgram::compile(tree);
    ASSERT_TRUE(program.uses_terminal(gp::Terminal::kQcov)) << text;
    ASSERT_FALSE(program.uses_terminal(gp::Terminal::kBres)) << text;

    for (std::uint64_t seed : {7ULL, 8ULL, 9ULL}) {
      const Instance inst = small_instance(seed, 120, 10);
      const SideInputs side = side_inputs(rng, inst);

      const SolveResult ref = greedy_solve_with(
          inst, gp::make_score_function(tree), side.duals, side.xbar);
      GreedyBatchStats stats;
      const SolveResult inc = greedy_solve_batched(
          inst, gp::CompiledBatchScorer(program, reg_scratch), side.duals,
          side.xbar, {}, &scratch, &stats);
      expect_same_solve(ref, inc, text);
      if (stats.rounds > 1) {
        EXPECT_LT(stats.rescored_frac(), 1.0) << text << " seed=" << seed;
      }
    }
  }
}

TEST(GreedyIncremental, StaticProgramMatchesSortBasedFastPath) {
  // Scorers reading neither QCOV nor BRES are round-invariant; the batched
  // greedy must agree with greedy_solve_static fed the same score column.
  const gp::Tree tree = gp::parse("(sub (mul DUAL QSUM) (div COST QSUM))");
  const gp::CompiledProgram program = gp::CompiledProgram::compile(tree);
  ASSERT_TRUE(program.is_static());

  common::Rng rng(5);
  std::vector<double> reg_scratch;
  GreedyScratch scratch;
  for (std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    const Instance inst = small_instance(seed);
    const SideInputs side = side_inputs(rng, inst);

    GreedyBatchStats stats;
    const SolveResult inc = greedy_solve_batched(
        inst, gp::CompiledBatchScorer(program, reg_scratch), side.duals,
        side.xbar, {}, &scratch, &stats);

    // Score every bundle once (any residual state: scores ignore it).
    std::vector<double> qsum;
    std::vector<double> dual_mass;
    detail::static_masses(inst, side.duals, qsum, dual_mass);
    BatchFeatureView view;
    std::vector<double> zeros(inst.num_bundles(), 0.0);
    view.cost = inst.costs();
    view.qsum = qsum;
    view.qcov = zeros;  // unread by a static program
    view.dual = dual_mass;
    view.xbar = side.xbar;
    view.bres = 0.0;
    view.count = inst.num_bundles();
    std::vector<double> scores(inst.num_bundles());
    gp::CompiledBatchScorer(program, reg_scratch)(view, scores);
    const SolveResult fast = greedy_solve_static(inst, scores);

    expect_same_solve(fast, inc, "static fast path");
    // Round-invariant regime: exactly one dense scoring round.
    EXPECT_EQ(stats.bundles_rescored, inst.num_bundles());
  }
}

TEST(GreedyIncremental, ConstantScoresPreserveIndexTieBreaks) {
  // All-equal scores make every round a pure tie: both paths must pick the
  // lowest-index eligible bundle (strict `>` argmax keeps the first max).
  const gp::Tree tree = gp::parse("(div COST COST)");  // simplifies to 1
  const gp::CompiledProgram program = gp::CompiledProgram::compile(tree);
  std::vector<double> reg_scratch;
  for (std::uint64_t seed : {21ULL, 22ULL}) {
    const Instance inst = small_instance(seed);
    const SolveResult ref =
        greedy_solve_with(inst, gp::make_score_function(tree));
    const SolveResult inc = greedy_solve_batched(
        inst, gp::CompiledBatchScorer(program, reg_scratch));
    expect_same_solve(ref, inc, "constant scores");
  }
}

TEST(GreedyIncremental, ScratchReuseIsStateless) {
  // A scratch carried across solves of different instances and programs
  // must never change any result relative to a fresh scratch.
  common::Rng rng(314);
  GreedyScratch reused;
  std::vector<double> reg_scratch;
  for (int trial = 0; trial < 12; ++trial) {
    const Instance inst =
        small_instance(300 + trial, 40 + 10 * (trial % 3), 6 + (trial % 2));
    const SideInputs side = side_inputs(rng, inst);
    gp::GenerateConfig gen;
    gen.min_depth = 4;
    gen.max_depth = 4;
    const gp::Tree tree = gp::generate_full(rng, 4, gen);
    const gp::CompiledProgram program = gp::CompiledProgram::compile(tree);

    const SolveResult with_reused = greedy_solve_batched(
        inst, gp::CompiledBatchScorer(program, reg_scratch), side.duals,
        side.xbar, {}, &reused);
    std::vector<double> fresh_regs;
    const SolveResult with_fresh = greedy_solve_batched(
        inst, gp::CompiledBatchScorer(program, fresh_regs), side.duals,
        side.xbar, {}, nullptr);
    expect_same_solve(with_fresh, with_reused, tree.to_string().c_str());
  }
}

TEST(GreedyIncremental, PaperClassInstancesRescoreFractionBelowOne) {
  // The acceptance-criterion shape: on Table III instance classes, a
  // QCOV-only scorer must skip a meaningful share of rescoring work.
  const gp::Tree tree = gp::parse("(div QCOV COST)");
  const gp::CompiledProgram program = gp::CompiledProgram::compile(tree);
  std::vector<double> reg_scratch;
  GreedyScratch scratch;
  for (std::size_t c = 0; c < paper_classes().size(); ++c) {
    const Instance inst = make_paper_instance(c, 0);
    GreedyBatchStats stats;
    const SolveResult solved = greedy_solve_batched(
        inst, gp::CompiledBatchScorer(program, reg_scratch), {}, {}, {},
        &scratch, &stats);
    ASSERT_TRUE(solved.feasible) << "class " << c;
    ASSERT_GT(stats.rounds, 1u) << "class " << c;
    EXPECT_LT(stats.rescored_frac(), 1.0) << "class " << c;
  }
}

// --- Differential against the full supplier walk ----------------------------
// detail::select_bundle skips the supplier walk of a service whose residual
// stays at or above max_supply(k). The oracle below is the update as it was
// before that rule: after every pick it walks every supplier of every
// touched service. It scores densely every round (scores are pure functions
// of the feature row, so this is the same argmax) and models the rescoring
// effort each regime of greedy_solve_batched reports, so equal
// GreedyBatchStats prove the dirty sets did not change either.

enum class Regime {
  kDense,  ///< BRES readers and type-erased scorers: every bundle, every round
  kDirty,  ///< QCOV-only: bundles whose qcov moved in the previous pick
  kOnce,   ///< round-invariant: the first round only
};

struct OracleRun {
  SolveResult result;
  GreedyBatchStats stats;
};

template <typename DenseScore>
[[nodiscard]] OracleRun full_walk_greedy(const Instance& inst,
                                         DenseScore&& score,
                                         std::span<const double> duals,
                                         std::span<const double> xbar,
                                         const GreedyOptions& options,
                                         Regime regime) {
  const std::size_t m = inst.num_bundles();
  const std::size_t n = inst.num_services();
  OracleRun run;
  SolveResult& result = run.result;
  GreedyBatchStats& st = run.stats;
  result.selection.assign(m, 0);

  std::vector<int> residual(inst.demands().begin(), inst.demands().end());
  long long outstanding = 0;
  for (int r : residual) outstanding += r;

  std::vector<double> qsum;
  std::vector<double> dual_mass;
  detail::static_masses(inst, duals, qsum, dual_mass);
  std::vector<double> xcol(m, 0.0);
  for (std::size_t j = 0; j < m && j < xbar.size(); ++j) xcol[j] = xbar[j];
  std::vector<double> useful(m, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t k = 0; k < n; ++k) {
      useful[j] += std::min(inst.quantity(j, k), residual[k]);
    }
  }

  std::vector<double> scores(m, 0.0);
  std::vector<std::uint8_t> changed(m, 0);  // qcov moved in the last pick
  long long rounds = 0;
  while (outstanding > 0) {
    if (options.max_rounds > 0 && rounds >= options.max_rounds) {
      result.rounds_capped = true;
      result.value = inst.selection_cost(result.selection);
      return run;
    }
    ++rounds;
    BatchFeatureView view;
    view.cost = inst.costs();
    view.qsum = qsum;
    view.qcov = useful;
    view.dual = dual_mass;
    view.xbar = xcol;
    view.bres = static_cast<double>(outstanding);
    view.count = m;
    score(view, std::span<double>(scores));
    if (st.rounds == 0 || regime == Regime::kDense) {
      st.bundles_rescored += m;
    } else if (regime == Regime::kDirty) {
      for (std::size_t j = 0; j < m; ++j) {
        if (changed[j] && !result.selection[j] && useful[j] > 0.0) {
          ++st.bundles_rescored;
        }
      }
    }
    st.rounds += 1;
    st.rescore_slots += m;

    double best_score = -std::numeric_limits<double>::infinity();
    std::size_t best_j = m;
    for (std::size_t j = 0; j < m; ++j) {
      if (result.selection[j] || useful[j] <= 0.0) continue;
      const double sc = detail::sanitize_score(scores[j]);
      if (sc > best_score) {
        best_score = sc;
        best_j = j;
      }
    }
    if (best_j == m) {
      result.value = inst.selection_cost(result.selection);
      return run;
    }

    result.selection[best_j] = 1;
    std::fill(changed.begin(), changed.end(), 0);
    for (std::size_t k = 0; k < n; ++k) {
      const int r_old = residual[k];
      const int q_best = inst.quantity(best_j, k);
      if (r_old <= 0 || q_best <= 0) continue;
      const int used = std::min(q_best, r_old);
      const int r_new = r_old - used;
      residual[k] = r_new;
      outstanding -= used;
      const auto idx = inst.suppliers(k);
      const auto qty = inst.supplier_quantities(k);
      for (std::size_t t = 0; t < idx.size(); ++t) {
        const std::size_t j = idx[t];
        if (result.selection[j]) continue;
        const int delta = std::min(qty[t], r_old) - std::min(qty[t], r_new);
        useful[j] -= delta;
        if (delta != 0) changed[j] = 1;
      }
    }
  }
  if (options.eliminate_redundancy) {
    detail::eliminate_redundancy(inst, result.selection);
  }
  result.feasible = true;
  result.value = inst.selection_cost(result.selection);
  return run;
}

void expect_same_run(const OracleRun& oracle, const SolveResult& got,
                     const GreedyBatchStats& stats, const std::string& label) {
  expect_same_solve(oracle.result, got, label.c_str());
  ASSERT_EQ(oracle.result.rounds_capped, got.rounds_capped) << label;
  EXPECT_EQ(oracle.stats.rounds, stats.rounds) << label;
  EXPECT_EQ(oracle.stats.bundles_rescored, stats.bundles_rescored) << label;
  EXPECT_EQ(oracle.stats.rescore_slots, stats.rescore_slots) << label;
}

/// Instances whose residuals cross max_supply: tight demands, unit or large
/// quantities, sparse and full columns.
[[nodiscard]] std::vector<Instance> crossing_instances() {
  std::vector<Instance> out;
  std::uint64_t seed = 500;
  for (const double tightness : {0.9, 0.95, 1.0}) {
    for (const double density : {0.15, 1.0}) {
      for (const int max_quantity : {1, 999}) {
        GeneratorConfig cfg;
        cfg.num_bundles = 40;
        cfg.num_services = 6;
        cfg.tightness = tightness;
        cfg.density = density;
        cfg.max_quantity = max_quantity;
        cfg.seed = ++seed;
        out.push_back(generate(cfg));
      }
    }
  }
  // Hand-built: every service has exactly two suppliers, and service 0's
  // demand equals bundle 0's quantity, so one pick lands its residual on
  // max_supply's boundary.
  out.emplace_back(
      std::vector<double>{3.0, 5.0, 4.0, 2.0, 6.0},
      std::vector<std::vector<int>>{{7, 0, 2}, {4, 3, 0}, {0, 5, 0},
                                    {0, 0, 9}, {0, 0, 0}},
      std::vector<int>{7, 6, 10});
  // Demand equal to the larger supplier's quantity, next to a service whose
  // demand is exactly its total supply.
  out.emplace_back(
      std::vector<double>{1.0, 1.0, 1.0, 1.0},
      std::vector<std::vector<int>>{{5, 1}, {3, 1}, {5, 1}, {0, 1}},
      std::vector<int>{5, 4});
  return out;
}

TEST(GreedyIncremental, MatchesFullWalkOracleWhereResidualsCrossMaxSupply) {
  const char* bres_programs[] = {"(div (mul QCOV BRES) COST)",
                                 "(sub (div BRES QSUM) COST)"};
  const char* qcov_programs[] = {"(div QCOV COST)",
                                 "(sub (mul QCOV DUAL) (mul COST XBAR))"};
  common::Rng rng(77);
  GreedyScratch scratch;
  std::vector<double> regs;
  std::vector<double> oracle_regs;
  const std::vector<Instance> instances = crossing_instances();
  int capped = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i];
    const SideInputs side = side_inputs(rng, inst);
    for (const bool redundancy : {true, false}) {
      for (const long long cap : {0LL, 2LL}) {
        GreedyOptions opts;
        opts.eliminate_redundancy = redundancy;
        opts.max_rounds = cap;
        const auto run = [&](const char* text, Regime regime) {
          const gp::Tree tree = gp::parse(text);
          const gp::CompiledProgram program =
              gp::CompiledProgram::compile(tree);
          const auto dense = [&](const BatchFeatureView& view,
                                 std::span<double> out) {
            program.evaluate_batch(gp::view_to_batch(view), out, oracle_regs);
          };
          const OracleRun oracle = full_walk_greedy(
              inst, dense, side.duals, side.xbar, opts, regime);
          capped += oracle.result.rounds_capped ? 1 : 0;
          const std::string label = std::string(text) + " instance " +
                                    std::to_string(i) + " cap " +
                                    std::to_string(cap) +
                                    (redundancy ? " redundancy" : "");

          GreedyBatchStats stats;
          const SolveResult aware = greedy_solve_batched(
              inst, gp::CompiledBatchScorer(program, regs), side.duals,
              side.xbar, opts, &scratch, &stats);
          expect_same_run(oracle, aware, stats, label + " aware");

          // Type-erased: the same program behind a BatchScoreFunction is
          // rescored dense every round.
          const OracleRun oracle_dense =
              regime == Regime::kDense
                  ? oracle
                  : full_walk_greedy(inst, dense, side.duals, side.xbar,
                                     opts, Regime::kDense);
          GreedyBatchStats erased_stats;
          const SolveResult erased = greedy_solve_batched(
              inst,
              gp::make_batch_score_function(
                  std::make_shared<const gp::CompiledProgram>(program)),
              side.duals, side.xbar, opts, &scratch, &erased_stats);
          expect_same_run(oracle_dense, erased, erased_stats,
                          label + " type-erased");

          const SolveResult per_bundle = greedy_solve_with(
              inst, gp::make_score_function(tree), side.duals, side.xbar,
              opts);
          expect_same_solve(oracle.result, per_bundle,
                            (label + " greedy_solve_with").c_str());
          ASSERT_EQ(oracle.result.rounds_capped, per_bundle.rounds_capped)
              << label;
        };
        for (const char* text : bres_programs) run(text, Regime::kDense);
        for (const char* text : qcov_programs) run(text, Regime::kDirty);
        run("(sub (mul DUAL QSUM) COST)", Regime::kOnce);
      }
    }
  }
  EXPECT_GT(capped, 0);  // the round cap really tripped somewhere
}

}  // namespace
}  // namespace carbon::cover
