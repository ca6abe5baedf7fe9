// Plain sequential reference for bcpop::Evaluator: one EvalContext and the
// eval_core pipeline (solve_relaxation -> solve_with_program /
// solve_with_heuristic / solve_with_selection / solve_with_score ->
// finalize_evaluation) in call order — no caches, no memo, no budget
// counters, no fan-out. Differential tests compare the evaluator against it
// bit for bit, at one participant and at many.
#pragma once

#include <span>
#include <vector>

#include "carbon/bcpop/eval_core.hpp"
#include "carbon/bcpop/evaluator_interface.hpp"
#include "carbon/bcpop/instance.hpp"
#include "carbon/gp/compiled.hpp"

namespace carbon::bcpop::test {

class EvalOracle {
 public:
  /// `compiled_scoring` picks solve_with_program (true) or the tree
  /// interpreter solve_with_heuristic (false) for heuristic evaluations.
  explicit EvalOracle(const Instance& inst, bool compiled_scoring = true)
      : inst_(inst), ctx_(inst), compiled_scoring_(compiled_scoring) {}

  [[nodiscard]] cover::Relaxation relaxation(std::span<const double> pricing) {
    return solve_relaxation(ctx_, pricing);
  }

  [[nodiscard]] Evaluation heuristic(std::span<const double> pricing,
                                     const gp::Tree& tree,
                                     EvalPurpose purpose = EvalPurpose::kBoth) {
    const cover::Relaxation relax = relaxation(pricing);
    const cover::SolveResult solved =
        compiled_scoring_
            ? solve_with_program(ctx_, relax, pricing,
                                 gp::CompiledProgram::compile(tree),
                                 /*polish=*/false)
            : solve_with_heuristic(ctx_, relax, pricing, tree,
                                   /*polish=*/false);
    return finalize_evaluation(inst_, pricing, solved, relax, purpose);
  }

  [[nodiscard]] Evaluation selection(
      std::span<const double> pricing,
      std::span<const std::uint8_t> genome,
      EvalPurpose purpose = EvalPurpose::kBoth) {
    const cover::Relaxation relax = relaxation(pricing);
    const cover::SolveResult solved =
        solve_with_selection(ctx_, relax, pricing, genome);
    return finalize_evaluation(inst_, pricing, solved, relax, purpose);
  }

  [[nodiscard]] Evaluation score(std::span<const double> pricing,
                                 const cover::ScoreFunction& score,
                                 EvalPurpose purpose = EvalPurpose::kBoth) {
    const cover::Relaxation relax = relaxation(pricing);
    const cover::SolveResult solved =
        solve_with_score(ctx_, relax, pricing, score);
    return finalize_evaluation(inst_, pricing, solved, relax, purpose);
  }

  [[nodiscard]] std::vector<Evaluation> heuristic_batch(
      std::span<const HeuristicJob> jobs) {
    std::vector<Evaluation> out;
    out.reserve(jobs.size());
    for (const HeuristicJob& job : jobs) {
      out.push_back(heuristic(job.pricing, *job.heuristic, job.purpose));
    }
    return out;
  }

  [[nodiscard]] std::vector<Evaluation> selection_batch(
      std::span<const SelectionJob> jobs) {
    std::vector<Evaluation> out;
    out.reserve(jobs.size());
    for (const SelectionJob& job : jobs) {
      out.push_back(selection(job.pricing, job.selection, job.purpose));
    }
    return out;
  }

 private:
  const Instance& inst_;
  EvalContext ctx_;
  bool compiled_scoring_;
};

}  // namespace carbon::bcpop::test
