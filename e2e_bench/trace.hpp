// Traced run and single-threaded replay: where a solve's time goes.
//
// Layer time is measured from outside the library. A TracingEvaluator
// decorator wraps the evaluator the solver would have built for itself and
// records a span around every call the solver makes into bcpop, together
// with a copy of the jobs and results. After the run, replay() pushes the
// recorded jobs through the public layer functions (gp compile, lp solve,
// cover greedy with a timed GP scorer, cover repair, bcpop finalize) on one
// bcpop::EvalContext, timing each in its own span, and checks every
// replayed answer against what the run returned.
//
// Spans live in memory (SpanLog) and are written when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "carbon/bcpop/evaluator_interface.hpp"
#include "carbon/bcpop/instance.hpp"
#include "checks.hpp"

namespace e2e {

enum class SpanName : std::uint8_t {
  kRun,             ///< one traced solve: evaluator construction + run()
  kConstruct,       ///< bcpop.construct: evaluator construction
  kHeuristicBatch,  ///< bcpop.heuristic_batch
  kSelectionBatch,  ///< bcpop.selection_batch
  kScalarEval,      ///< bcpop.scalar_eval
  kRecord,          ///< trace.record: copying jobs for the replay
  kReplayBatch,     ///< replay of one recorded batch call
  kReplayScalar,    ///< replay of one recorded scalar call
  kCompile,         ///< gp.compile: plan_heuristic_batch
  kLpSolve,         ///< lp.solve: bcpop::solve_relaxation
  kGreedy,          ///< cover.greedy (parent of gp.score)
  kScore,           ///< gp.score: one batch-scorer call
  kRepair,          ///< cover.repair: bcpop::solve_with_selection
  kFinalize,        ///< bcpop.finalize: bcpop::finalize_evaluation
  kCount
};

[[nodiscard]] const char* span_name(SpanName name);

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = kNoParent;
  std::uint32_t run = 0;
  SpanName name = SpanName::kRun;

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// In-memory span store; single-threaded (spans are opened only on the
/// solver thread and the replay thread, which never overlap).
class SpanLog {
 public:
  SpanLog() : origin_(std::chrono::steady_clock::now()) {}

  std::uint32_t open(SpanName name, std::uint32_t parent, std::uint32_t run);
  void close(std::uint32_t id) { spans_[id].end_ns = now_ns(); }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Writes one tab-separated line per span: id, name, parent (-1 = root),
  /// run, start_ns, end_ns.
  bool write_tsv(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// One job as the solver submitted it, with the run's answer.
struct RecordedJob {
  carbon::bcpop::Pricing pricing;
  carbon::gp::Tree heuristic;               ///< heuristic jobs only
  std::vector<std::uint8_t> selection;      ///< selection jobs only
  carbon::bcpop::EvalPurpose purpose = carbon::bcpop::EvalPurpose::kBoth;
  carbon::bcpop::Evaluation result;
};

struct RecordedCall {
  bool heuristic = true;  ///< heuristic jobs, else selection jobs
  bool batch = true;      ///< batch entry point, else scalar
  std::uint32_t span = kNoParent;
  std::vector<RecordedJob> jobs;
};

/// Decorator that times every call into the wrapped evaluator and records
/// the jobs. Trajectory-neutral: it forwards every call unchanged.
class TracingEvaluator final : public carbon::bcpop::EvaluatorInterface {
 public:
  using EvaluatorInterface::evaluate_with_heuristic;
  using EvaluatorInterface::evaluate_with_selection;

  TracingEvaluator(carbon::bcpop::EvaluatorInterface& inner, SpanLog& log,
                   std::uint32_t run_span, std::uint32_t run);

  [[nodiscard]] std::span<const carbon::ea::Bounds> price_bounds()
      const override {
    return inner_.price_bounds();
  }
  [[nodiscard]] std::size_t genome_length() const override {
    return inner_.genome_length();
  }
  carbon::bcpop::Evaluation evaluate_with_heuristic(
      std::span<const double> pricing, const carbon::gp::Tree& heuristic,
      carbon::bcpop::EvalPurpose purpose) override;
  carbon::bcpop::Evaluation evaluate_with_selection(
      std::span<const double> pricing,
      std::span<const std::uint8_t> selection,
      carbon::bcpop::EvalPurpose purpose) override;
  std::vector<carbon::bcpop::Evaluation> evaluate_heuristic_batch(
      std::span<const carbon::bcpop::HeuristicJob> jobs) override;
  std::vector<carbon::bcpop::Evaluation> evaluate_selection_batch(
      std::span<const carbon::bcpop::SelectionJob> jobs) override;
  [[nodiscard]] long long ul_evaluations() const override {
    return inner_.ul_evaluations();
  }
  [[nodiscard]] long long ll_evaluations() const override {
    return inner_.ll_evaluations();
  }
  [[nodiscard]] carbon::bcpop::BackendStats backend_stats() const override {
    return inner_.backend_stats();
  }
  void set_metrics(carbon::obs::MetricsRegistry* metrics) noexcept override {
    inner_.set_metrics(metrics);
  }
  void set_guard(const carbon::guard::GuardConfig& config,
                 long long eval_base) noexcept override {
    inner_.set_guard(config, eval_base);
  }
  void clear_caches() noexcept override { inner_.clear_caches(); }

  [[nodiscard]] std::vector<RecordedCall>& calls() noexcept { return calls_; }

 private:
  carbon::bcpop::EvaluatorInterface& inner_;
  SpanLog& log_;
  std::uint32_t run_span_;
  std::uint32_t run_;
  std::vector<RecordedCall> calls_;
};

/// Work counts of replays (times live in the spans).
struct ReplayCounts {
  long long jobs = 0;             ///< jobs in the recorded calls
  long long fresh = 0;            ///< jobs that did fresh work
  long long dedup = 0;            ///< answered by the per-batch plan
  long long memo_hits = 0;        ///< answered by the cross-generation memo
  long long programs = 0;         ///< unique programs compiled
  long long lp_solves = 0;
  long long lp_iterations = 0;
  long long greedy_solves = 0;
  long long static_solves = 0;    ///< programs on the static fast path
  long long rounds = 0;
  long long bundles_rescored = 0;
  long long rescore_slots = 0;
  long long bundles_scored = 0;   ///< bundle scores computed by gp.score
};

/// Replays `calls` single-threaded on one EvalContext of `inst`, adding
/// spans to `log` under run id `run`, adding the work done to `counts`, and
/// checking every replayed relaxation bound, selection and finalized
/// Evaluation against the run. `parallel` says which evaluator ran: the
/// replay's relaxation cache and score memo copy its geometry and probe
/// order, so they hit and miss where the run's did.
void replay(const carbon::bcpop::Instance& inst,
            const std::vector<RecordedCall>& calls, bool parallel,
            SpanLog& log, std::uint32_t run, ReplayCounts& counts,
            CheckTally& tally);

}  // namespace e2e
