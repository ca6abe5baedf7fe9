// Score-driven greedy multicover heuristic — the algorithm template whose
// scoring function the GP population evolves (paper §IV-B).
//
// The greedy repeatedly scores every not-yet-selected bundle that still adds
// useful coverage, picks the highest-scoring one, and stops when all demands
// are met. An optional reverse pass then drops redundant bundles (most
// expensive first). Features exposed to the scoring function implement the
// paper's terminal set (Table I) with the per-service terminals aggregated
// over services, as discussed in DESIGN.md §5.1.
//
// The core is a template over the scorer so that hot callers (the GP tree
// evaluator, which runs inside the innermost loop of every fitness
// evaluation) pay no std::function indirection; `greedy_solve` is the
// type-erased convenience wrapper.
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <span>
#include <type_traits>
#include <vector>

#include "carbon/cover/instance.hpp"

namespace carbon::cover {

/// Everything a scoring function may look at when scoring bundle j.
/// All values are recomputed against the *residual* demand each round.
struct BundleFeatures {
  double cost = 0.0;       ///< c_j — price of the bundle.
  double qsum = 0.0;       ///< Σ_k q_jk — raw service mass of the bundle.
  double qcov = 0.0;       ///< Σ_k min(q_jk, residual_k) — useful coverage now.
  double bres = 0.0;       ///< Σ_k residual_k — outstanding demand.
  double dual = 0.0;       ///< Σ_k d_k q_jk — LP-dual-weighted coverage.
  double xbar = 0.0;       ///< x̄_j — value of bundle j in the LP relaxation.
};

/// Scores one bundle; the greedy selects the maximal score each round.
using ScoreFunction = std::function<double(const BundleFeatures&)>;

/// SoA view of the features of EVERY bundle for one greedy round: one
/// contiguous column per BundleFeatures field (bres is a scalar — the
/// outstanding demand is shared by all bundles within a round). Batch
/// scorers (gp::CompiledProgram via gp::make_batch_score_function) fill
/// `out[j]` for all j in one sweep of elementwise loops instead of being
/// called M times with per-bundle structs.
struct BatchFeatureView {
  std::span<const double> cost;  ///< c_j
  std::span<const double> qsum;  ///< Σ_k q_jk
  std::span<const double> qcov;  ///< Σ_k min(q_jk, residual_k)
  std::span<const double> dual;  ///< Σ_k d_k q_jk
  std::span<const double> xbar;  ///< x̄_j
  double bres = 0.0;             ///< Σ_k residual_k (broadcast)
  std::size_t count = 0;         ///< number of bundles (size of each column)
};

/// Scores every bundle of one round: writes out[j] for j in [0, count).
/// Entries of selected / zero-coverage bundles are ignored by the caller.
using BatchScoreFunction =
    std::function<void(const BatchFeatureView&, std::span<double>)>;

struct GreedyOptions {
  /// Drop redundant bundles after reaching feasibility.
  bool eliminate_redundancy = true;
  /// Deterministic cap on selection rounds (0 = unlimited). A solve that
  /// still has outstanding demand when the cap is reached returns
  /// feasible=false with SolveResult::rounds_capped set, and skips the
  /// redundancy pass (the partial selection is not a cover).
  long long max_rounds = 0;
};

namespace detail {

/// NaN/inf scores would otherwise poison the argmax.
inline double sanitize_score(double score) noexcept {
  return std::isfinite(score) ? score : -std::numeric_limits<double>::max();
}

/// Reverse pass shared by every constructive solver here: try to drop
/// selected bundles, most expensive first, keeping feasibility.
void eliminate_redundancy(const Instance& instance,
                          std::vector<std::uint8_t>& selection);

/// Per-bundle static masses (independent of the residual): qsum[j] and the
/// dual-weighted coverage dual_mass[j], accumulated in service order so the
/// batched and per-bundle paths sum in the same sequence.
void static_masses(const Instance& instance, std::span<const double> duals,
                   std::vector<double>& qsum, std::vector<double>& dual_mass);

/// Useful coverage of every bundle against a (non-negative) residual:
/// useful[j] = Σ_k min(q_jk, residual_k), summed in service order. This is
/// the one O(M·N) pass of a construction; select_bundle keeps it current.
void init_useful(const Instance& instance, std::span<const int> residual,
                 std::vector<double>& useful);

/// Selects bundle j: marks it, lowers the residual of every service it
/// covers, and subtracts the lost coverage from the useful[] entry of each
/// still-unselected supplier of those services, calling on_changed(i) for
/// every bundle i whose entry moved (possibly more than once per i).
/// Returns the demand covered, for the caller's outstanding total.
///
/// A service whose new residual is still >= max_supply(k) is skipped
/// without walking its suppliers: every supplier has q <= r_new < r_old, so
/// min(q, r_old) - min(q, r_new) = 0 for all of them. useful[] holds exact
/// integers, so the skipped walks would only have subtracted zeros — the
/// result is bit-identical to the full walk.
template <typename OnChanged>
long long select_bundle(const Instance& instance, std::size_t j,
                        std::span<std::uint8_t> selection,
                        std::span<int> residual, std::span<double> useful,
                        OnChanged&& on_changed) {
  selection[j] = 1;
  const auto chosen = instance.bundle(j);
  long long covered = 0;
  for (std::size_t k = 0; k < chosen.size(); ++k) {
    const int r_old = residual[k];
    if (r_old <= 0 || chosen[k] <= 0) continue;
    const int used = std::min(chosen[k], r_old);
    const int r_new = r_old - used;
    residual[k] = r_new;
    covered += used;
    if (r_new >= instance.max_supply(k)) continue;
    // Only the suppliers of service k (CSR index, contiguous).
    const auto idx = instance.suppliers(k);
    const auto qty = instance.supplier_quantities(k);
    for (std::size_t t = 0; t < idx.size(); ++t) {
      const std::size_t i = idx[t];
      if (selection[i]) continue;
      const int q = qty[t];
      const int delta = std::min(q, r_old) - std::min(q, r_new);
      if (delta == 0) continue;
      useful[i] -= delta;
      on_changed(i);
    }
  }
  return covered;
}

}  // namespace detail

/// Runs the greedy with an arbitrary callable scorer (inlined at the call
/// site). `duals` and `relaxed_x` may be empty, in which case the
/// corresponding features read as 0 (the GP population then learns to ignore
/// them). Returns feasible=false only when the instance itself cannot be
/// covered.
template <typename Score>
[[nodiscard]] SolveResult greedy_solve_with(const Instance& instance,
                                            Score&& score,
                                            std::span<const double> duals = {},
                                            std::span<const double> relaxed_x =
                                                {},
                                            const GreedyOptions& options = {}) {
  const std::size_t m = instance.num_bundles();

  SolveResult result;
  result.selection.assign(m, 0);

  std::vector<int> residual(instance.demands().begin(),
                            instance.demands().end());
  long long outstanding =
      std::accumulate(residual.begin(), residual.end(), 0LL);

  // Per-bundle static features (do not depend on the residual).
  std::vector<double> qsum;
  std::vector<double> dual_mass;
  detail::static_masses(instance, duals, qsum, dual_mass);

  // Incrementally maintained useful coverage: useful[j] = Σ_k min(q_jk, r_k).
  std::vector<double> useful;
  detail::init_useful(instance, residual, useful);

  long long rounds = 0;
  while (outstanding > 0) {
    if (options.max_rounds > 0 && rounds >= options.max_rounds) {
      result.feasible = false;
      result.rounds_capped = true;
      result.value = instance.selection_cost(result.selection);
      return result;
    }
    ++rounds;
    double best_score = -std::numeric_limits<double>::infinity();
    std::size_t best_j = m;
    const double bres = static_cast<double>(outstanding);

    for (std::size_t j = 0; j < m; ++j) {
      if (result.selection[j]) continue;
      if (useful[j] <= 0.0) continue;  // adds nothing: never select

      BundleFeatures f;
      f.cost = instance.cost(j);
      f.qsum = qsum[j];
      f.qcov = useful[j];
      f.bres = bres;
      f.dual = dual_mass[j];
      f.xbar = j < relaxed_x.size() ? relaxed_x[j] : 0.0;

      const double s = detail::sanitize_score(score(f));
      if (s > best_score) {
        best_score = s;
        best_j = j;
      }
    }

    if (best_j == m) {
      // No bundle adds coverage yet demand remains: instance not coverable.
      result.feasible = false;
      result.value = instance.selection_cost(result.selection);
      return result;
    }

    outstanding -= detail::select_bundle(instance, best_j, result.selection,
                                         residual, useful,
                                         [](std::size_t) {});
  }

  if (options.eliminate_redundancy) {
    detail::eliminate_redundancy(instance, result.selection);
  }

  result.feasible = true;
  result.value = instance.selection_cost(result.selection);
  return result;
}

/// Batch scorers that can report which residual-dependent terminals they
/// read (gp::CompiledBatchScorer queries the CANONICAL compiled program, so
/// terminals that simplify away do not count). The batched greedy uses the
/// answers to skip rescoring work; scorers without these members are
/// conservatively rescored dense every round.
template <typename S>
concept TerminalAwareBatchScorer = requires(const std::remove_cvref_t<S>& s) {
  { s.depends_on_bres() } -> std::convertible_to<bool>;
  { s.depends_on_qcov() } -> std::convertible_to<bool>;
};

/// Caller-owned working memory for greedy_solve_batched. Hot callers (one
/// per bcpop::EvalContext, mirroring the per-context lp::Basis scratch) keep
/// one across evaluations so the ~10^5 greedy solves per run stop paying a
/// dozen heap allocations each; every vector is assign()ed at entry, so a
/// reused scratch never leaks state between solves.
struct GreedyScratch {
  std::vector<int> residual;
  std::vector<double> qsum;
  std::vector<double> dual_mass;
  std::vector<double> xbar;
  std::vector<double> useful;
  std::vector<double> scores;
  std::vector<std::uint32_t> dirty;      ///< bundles whose qcov changed
  std::vector<std::uint8_t> dirty_flag;  ///< dirty_flag[j] == j in `dirty`
  /// Compacted feature columns + results for dirty-only rescoring.
  std::vector<double> sub_cost;
  std::vector<double> sub_qsum;
  std::vector<double> sub_qcov;
  std::vector<double> sub_dual;
  std::vector<double> sub_xbar;
  std::vector<double> sub_out;
};

/// Rescoring effort of one batched greedy solve. The dense baseline scores
/// every bundle every round (rescore_slots); the dirty-set greedy only
/// recomputes bundles_rescored of them, so rescored_frac < 1 measures the
/// work the incremental path avoided.
struct GreedyBatchStats {
  std::size_t rounds = 0;
  std::size_t bundles_rescored = 0;
  std::size_t rescore_slots = 0;  ///< rounds * num_bundles

  [[nodiscard]] double rescored_frac() const noexcept {
    return rescore_slots == 0
               ? 0.0
               : static_cast<double>(bundles_rescored) /
                     static_cast<double>(rescore_slots);
  }
};

/// Batch-scoring variant of greedy_solve_with: semantically identical (same
/// selections, same tie-breaks) for any batch scorer that computes, per
/// bundle, the same double the per-bundle scorer would.
///
/// Scoring is LAZY: a bundle's score is a pure function of its feature row,
/// and selecting a bundle only changes qcov for bundles sharing a service
/// whose residual moved (tracked through the instance's service→bundle CSR
/// index) and bres for all of them. So after the first dense round, a
/// TerminalAwareBatchScorer that ignores BRES is re-evaluated only on that
/// dirty set — gathered into a compact sub-batch, scored, and scattered
/// back. Every rescore recomputes exactly the double a dense sweep would
/// (kernel ops are elementwise, so batch composition cannot change any
/// element's bits), hence the argmax and its index tie-breaks are identical
/// to the dense greedy. Scorers that read BRES — or type-erased scorers
/// that cannot say — are rescored dense every round, which is the old
/// behavior exactly.
///
/// `scratch` (optional) supplies caller-owned working memory; `stats`
/// (optional) receives the rescoring effort of this solve.
template <typename BatchScore>
[[nodiscard]] SolveResult greedy_solve_batched(
    const Instance& instance, BatchScore&& batch_score,
    std::span<const double> duals = {}, std::span<const double> relaxed_x = {},
    const GreedyOptions& options = {}, GreedyScratch* scratch = nullptr,
    GreedyBatchStats* stats = nullptr) {
  const std::size_t m = instance.num_bundles();

  GreedyScratch local;
  GreedyScratch& s = scratch != nullptr ? *scratch : local;
  GreedyBatchStats st;

  SolveResult result;
  result.selection.assign(m, 0);

  s.residual.assign(instance.demands().begin(), instance.demands().end());
  long long outstanding =
      std::accumulate(s.residual.begin(), s.residual.end(), 0LL);

  detail::static_masses(instance, duals, s.qsum, s.dual_mass);

  // xbar column: pad/truncate to exactly m entries (absent -> 0), matching
  // the per-bundle path's `j < relaxed_x.size() ? relaxed_x[j] : 0`.
  s.xbar.assign(m, 0.0);
  for (std::size_t j = 0; j < m && j < relaxed_x.size(); ++j) {
    s.xbar[j] = relaxed_x[j];
  }

  detail::init_useful(instance, s.residual, s.useful);

  // Round-invariance of the scorer decides the rescoring regime once.
  bool rescore_all = true;
  bool track_dirty = false;
  if constexpr (TerminalAwareBatchScorer<BatchScore>) {
    rescore_all = batch_score.depends_on_bres();
    track_dirty = !rescore_all && batch_score.depends_on_qcov();
  }
  // Cleared unconditionally: a reused scratch may carry a dirty list from a
  // previous solve (possibly of a LARGER instance), which must never leak
  // into this one.
  s.dirty.clear();
  if (track_dirty) {
    s.dirty_flag.assign(m, 0);
  }

  s.scores.assign(m, 0.0);
  BatchFeatureView view;
  view.cost = instance.costs();
  view.qsum = s.qsum;
  view.qcov = s.useful;
  view.dual = s.dual_mass;
  view.xbar = s.xbar;
  view.count = m;

  bool first_round = true;
  long long rounds = 0;
  while (outstanding > 0) {
    if (options.max_rounds > 0 && rounds >= options.max_rounds) {
      result.feasible = false;
      result.rounds_capped = true;
      result.value = instance.selection_cost(result.selection);
      if (stats != nullptr) *stats = st;
      return result;
    }
    ++rounds;
    view.bres = static_cast<double>(outstanding);
    if (first_round || rescore_all) {
      batch_score(view, std::span<double>(s.scores));
      st.bundles_rescored += m;
    } else if (track_dirty && !s.dirty.empty()) {
      // Gather the still-eligible dirty bundles into a compact sub-batch
      // (bundles that dropped to zero useful coverage can never be selected
      // again, so their stale scores are never read).
      std::size_t d = 0;
      s.sub_cost.resize(s.dirty.size());
      s.sub_qsum.resize(s.dirty.size());
      s.sub_qcov.resize(s.dirty.size());
      s.sub_dual.resize(s.dirty.size());
      s.sub_xbar.resize(s.dirty.size());
      s.sub_out.resize(s.dirty.size());
      for (const std::uint32_t j : s.dirty) {
        if (result.selection[j] || s.useful[j] <= 0.0) continue;
        s.sub_cost[d] = view.cost[j];
        s.sub_qsum[d] = s.qsum[j];
        s.sub_qcov[d] = s.useful[j];
        s.sub_dual[d] = s.dual_mass[j];
        s.sub_xbar[d] = s.xbar[j];
        s.dirty[d] = j;  // keep the surviving index for the scatter
        ++d;
      }
      if (d > 0) {
        BatchFeatureView sub;
        sub.cost = std::span<const double>(s.sub_cost.data(), d);
        sub.qsum = std::span<const double>(s.sub_qsum.data(), d);
        sub.qcov = std::span<const double>(s.sub_qcov.data(), d);
        sub.dual = std::span<const double>(s.sub_dual.data(), d);
        sub.xbar = std::span<const double>(s.sub_xbar.data(), d);
        sub.bres = view.bres;
        sub.count = d;
        batch_score(sub, std::span<double>(s.sub_out.data(), d));
        for (std::size_t t = 0; t < d; ++t) {
          s.scores[s.dirty[t]] = s.sub_out[t];
        }
      }
      st.bundles_rescored += d;
    }
    if (track_dirty && !first_round) {
      for (const std::uint32_t j : s.dirty) s.dirty_flag[j] = 0;
      s.dirty.clear();
    }
    first_round = false;
    st.rounds += 1;
    st.rescore_slots += m;

    double best_score = -std::numeric_limits<double>::infinity();
    std::size_t best_j = m;
    for (std::size_t j = 0; j < m; ++j) {
      if (result.selection[j]) continue;
      if (s.useful[j] <= 0.0) continue;
      const double sc = detail::sanitize_score(s.scores[j]);
      if (sc > best_score) {
        best_score = sc;
        best_j = j;
      }
    }

    if (best_j == m) {
      result.feasible = false;
      result.value = instance.selection_cost(result.selection);
      if (stats != nullptr) *stats = st;
      return result;
    }

    // Bundles whose qcov did not move keep an exact score.
    outstanding -= detail::select_bundle(
        instance, best_j, result.selection, s.residual, s.useful,
        [&s, track_dirty](std::size_t j) {
          if (track_dirty && !s.dirty_flag[j]) {
            s.dirty_flag[j] = 1;
            s.dirty.push_back(static_cast<std::uint32_t>(j));
          }
        });
  }

  if (options.eliminate_redundancy) {
    detail::eliminate_redundancy(instance, result.selection);
  }

  result.feasible = true;
  result.value = instance.selection_cost(result.selection);
  if (stats != nullptr) *stats = st;
  return result;
}

/// Fast path for *static* scorers (scores independent of the residual
/// demand): one score per bundle, computed up front. Semantically identical
/// to greedy_solve_with for any scorer that ignores qcov/bres: useful
/// coverage only ever decreases, so the argmax sequence equals the
/// score-descending sweep (ties broken by index in both). Complexity drops
/// from O(steps * M * score) to O(M log M + M * N).
[[nodiscard]] SolveResult greedy_solve_static(
    const Instance& instance, std::span<const double> scores,
    const GreedyOptions& options = {});

/// Type-erased convenience wrapper over greedy_solve_with.
[[nodiscard]] SolveResult greedy_solve(const Instance& instance,
                                       const ScoreFunction& score,
                                       std::span<const double> duals = {},
                                       std::span<const double> relaxed_x = {},
                                       const GreedyOptions& options = {});

/// Classic baseline score: useful-coverage per unit cost (cost-effectiveness).
[[nodiscard]] double cost_effectiveness_score(const BundleFeatures& f);

/// Baseline score using LP duals: dual-weighted coverage minus cost
/// (the LP "attractiveness" of the column).
[[nodiscard]] double dual_score(const BundleFeatures& f);

}  // namespace carbon::cover
