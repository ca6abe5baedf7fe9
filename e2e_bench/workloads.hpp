// Benchmark workloads and the solver configurations they run.
//
// Every workload is a whole CARBON or COBRA run, configured exactly as a
// user would: Table II defaults, with only the evaluation budget and the
// participant count set here. One benchmark invocation solves a panel of
// instances of the workload's paper class; each panel instance has its own
// instance replication and solver seed, both derived from --seed.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <thread>

#include "carbon/bcpop/evaluator.hpp"
#include "carbon/bcpop/parallel_evaluator.hpp"
#include "carbon/cobra/cobra_solver.hpp"
#include "carbon/core/carbon_solver.hpp"

namespace e2e {

struct Workload {
  const char* name;
  bool cobra;                 ///< COBRA instead of CARBON
  std::size_t paper_class;    ///< Table III class index (0..8)
  long long budget;           ///< UL and LL evaluation budget, each
  std::size_t participants;   ///< wanted participants (capped at nproc)
  /// Median solve time of one panel instance on the reference host (4-core
  /// Xeon, Release). Sizes the panel so that one pass takes about
  /// --seconds; it never changes what a panel instance computes.
  double reference_solve_s;
  long long smoke_budget;     ///< budget used by --smoke
};

// Budgets are far below Table II's 50 000 so that one invocation can solve
// a large panel of instances: a single run's solve time moves by tens of
// percent from one seed to the next (GP trees grow differently; at n=100 the
// slowest run of a class takes several times the fastest), and only the
// average of a panel of 15 to 140 instances is steady across seeds.
// BENCHMARK.json records why each workload was chosen.
inline constexpr Workload kWorkloads[] = {
    // Greedy construction and GP scoring dominate; the relaxation cache is
    // read-mostly (500 predator jobs per generation reuse 100 relaxations).
    {"carbon_n500_m30_p4", false, 8, 2000, 4, 1.75, 300},
    // LP relaxation dominates and every upper-phase job writes a new cache
    // entry; cover only repairs baskets; a serial coevolution section.
    {"cobra_n500_m30_p4", true, 8, 2500, 4, 1.95, 200},
    // ~40 us evaluations: per-batch fixed costs (compile, memo probes, core
    // operators) show; no scheduler work; the single-thread baseline.
    {"carbon_n100_m5_p1", false, 0, 5000, 1, 0.24, 300},
};

[[nodiscard]] inline const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

[[nodiscard]] inline std::size_t hardware_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// eval_threads for a wanted participant count. The calling thread takes
/// part in every batch, so p participants need p - 1 workers; eval_threads
/// == 1 selects the serial evaluator, which has exactly one participant.
[[nodiscard]] inline std::size_t eval_threads_for(const Workload& w) {
  const std::size_t p = std::min(w.participants, hardware_threads());
  return p <= 2 ? 1 : p - 1;
}

/// Participants a run with these eval_threads really has.
[[nodiscard]] inline std::size_t participants_of(std::size_t eval_threads) {
  return eval_threads == 1 ? 1 : eval_threads + 1;
}

/// SplitMix64: derives independent panel seeds from the workload seed.
[[nodiscard]] inline std::uint64_t mix_seed(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Instance replication and solver seed of panel entry `i`.
[[nodiscard]] inline std::uint64_t panel_seed(std::uint64_t seed,
                                              std::size_t i) {
  return mix_seed(mix_seed(seed) + i);
}

template <typename Config>
[[nodiscard]] Config make_config(const Workload& w, long long budget,
                                 std::uint64_t seed) {
  Config cfg;
  cfg.ul_eval_budget = budget;
  cfg.ll_eval_budget = budget;
  cfg.eval_threads = eval_threads_for(w);
  cfg.seed = seed;
  return cfg;
}

/// The evaluator a solver builds for itself inside run(), built here
/// instead so the traced run can wrap it. Mirrors CarbonSolver::run() and
/// CobraSolver::run(); the traced-equals-untraced check catches any drift.
struct SolverEvaluator {
  std::unique_ptr<carbon::bcpop::EvaluatorInterface> owner;
  /// Non-null when the solver would use the parallel evaluator.
  carbon::bcpop::ParallelEvaluator* parallel = nullptr;
};

template <typename Config>
[[nodiscard]] SolverEvaluator make_solver_evaluator(
    const carbon::bcpop::Instance& inst, const Config& cfg, bool polish) {
  namespace bcpop = carbon::bcpop;
  SolverEvaluator out;
  if (cfg.eval_threads != 1 || cfg.lp_warm == bcpop::LpWarm::kPool) {
    const std::size_t pool_cap = std::max<std::size_t>(
        bcpop::BasisPool::kDefaultCapacity, 2 * cfg.ul_population_size);
    auto par = std::make_unique<bcpop::ParallelEvaluator>(
        inst, bcpop::ParallelEvaluator::Options{
                  .threads = cfg.eval_threads,
                  .sched = cfg.sched,
                  .memo_xgen = cfg.memo_xgen,
                  .lp_warm = cfg.lp_warm,
                  .basis_pool_capacity = pool_cap});
    par->set_polish(polish);
    par->set_compiled_scoring(cfg.compiled_scoring);
    out.parallel = par.get();
    out.owner = std::move(par);
    return out;
  }
  auto own = std::make_unique<bcpop::Evaluator>(inst);
  own->set_polish(polish);
  own->set_compiled_scoring(cfg.compiled_scoring);
  own->set_memo_xgen(cfg.memo_xgen);
  out.owner = std::move(own);
  return out;
}

}  // namespace e2e
