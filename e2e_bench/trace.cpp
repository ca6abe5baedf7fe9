#include "trace.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <memory>

#include "carbon/bcpop/eval_core.hpp"
#include "carbon/bcpop/relaxation_cache.hpp"
#include "carbon/bcpop/score_cache.hpp"
#include "carbon/cover/greedy.hpp"
#include "carbon/gp/scoring.hpp"

namespace e2e {

namespace bcpop = carbon::bcpop;
namespace cover = carbon::cover;
namespace gp = carbon::gp;

const char* span_name(SpanName name) {
  static constexpr std::array<const char*,
                              static_cast<std::size_t>(SpanName::kCount)>
      kNames = {"run",          "bcpop.construct",
                "bcpop.heuristic_batch", "bcpop.selection_batch",
                "bcpop.scalar_eval",     "trace.record",
                "replay.batch",          "replay.scalar",
                "gp.compile",            "lp.solve",
                "cover.greedy",          "gp.score",
                "cover.repair",          "bcpop.finalize"};
  return kNames[static_cast<std::size_t>(name)];
}

std::uint32_t SpanLog::open(SpanName name, std::uint32_t parent,
                            std::uint32_t run) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.run = run;
  s.start_ns = now_ns();
  s.end_ns = s.start_ns;
  spans_.push_back(s);
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

bool SpanLog::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tname\tparent\trun\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%lld\t%u\t%lld\t%lld\n", i, span_name(s.name),
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 s.run, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

namespace {

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, SpanName name, std::uint32_t parent,
             std::uint32_t run)
      : log_(log), id_(log.open(name, parent, run)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

 private:
  SpanLog& log_;
  std::uint32_t id_;
};

}  // namespace

TracingEvaluator::TracingEvaluator(bcpop::EvaluatorInterface& inner,
                                   SpanLog& log, std::uint32_t run_span,
                                   std::uint32_t run)
    : inner_(inner), log_(log), run_span_(run_span), run_(run) {}

bcpop::Evaluation TracingEvaluator::evaluate_with_heuristic(
    std::span<const double> pricing, const gp::Tree& heuristic,
    bcpop::EvalPurpose purpose) {
  const std::uint32_t id = log_.open(SpanName::kScalarEval, run_span_, run_);
  bcpop::Evaluation result =
      inner_.evaluate_with_heuristic(pricing, heuristic, purpose);
  log_.close(id);
  ScopedSpan record(log_, SpanName::kRecord, run_span_, run_);
  RecordedJob job;
  job.pricing.assign(pricing.begin(), pricing.end());
  job.heuristic = heuristic;
  job.purpose = purpose;
  job.result = result;
  calls_.push_back({true, false, id, {}});
  calls_.back().jobs.push_back(std::move(job));
  return result;
}

bcpop::Evaluation TracingEvaluator::evaluate_with_selection(
    std::span<const double> pricing, std::span<const std::uint8_t> selection,
    bcpop::EvalPurpose purpose) {
  const std::uint32_t id = log_.open(SpanName::kScalarEval, run_span_, run_);
  bcpop::Evaluation result =
      inner_.evaluate_with_selection(pricing, selection, purpose);
  log_.close(id);
  ScopedSpan record(log_, SpanName::kRecord, run_span_, run_);
  RecordedJob job;
  job.pricing.assign(pricing.begin(), pricing.end());
  job.selection.assign(selection.begin(), selection.end());
  job.purpose = purpose;
  job.result = result;
  calls_.push_back({false, false, id, {}});
  calls_.back().jobs.push_back(std::move(job));
  return result;
}

std::vector<bcpop::Evaluation> TracingEvaluator::evaluate_heuristic_batch(
    std::span<const bcpop::HeuristicJob> jobs) {
  const std::uint32_t id =
      log_.open(SpanName::kHeuristicBatch, run_span_, run_);
  std::vector<bcpop::Evaluation> results =
      inner_.evaluate_heuristic_batch(jobs);
  log_.close(id);
  ScopedSpan record(log_, SpanName::kRecord, run_span_, run_);
  RecordedCall call{true, true, id, {}};
  call.jobs.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    RecordedJob& r = call.jobs[i];
    r.pricing.assign(jobs[i].pricing.begin(), jobs[i].pricing.end());
    r.heuristic = *jobs[i].heuristic;
    r.purpose = jobs[i].purpose;
    r.result = results[i];
  }
  calls_.push_back(std::move(call));
  return results;
}

std::vector<bcpop::Evaluation> TracingEvaluator::evaluate_selection_batch(
    std::span<const bcpop::SelectionJob> jobs) {
  const std::uint32_t id =
      log_.open(SpanName::kSelectionBatch, run_span_, run_);
  std::vector<bcpop::Evaluation> results =
      inner_.evaluate_selection_batch(jobs);
  log_.close(id);
  ScopedSpan record(log_, SpanName::kRecord, run_span_, run_);
  RecordedCall call{false, true, id, {}};
  call.jobs.resize(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    RecordedJob& r = call.jobs[i];
    r.pricing.assign(jobs[i].pricing.begin(), jobs[i].pricing.end());
    r.selection.assign(jobs[i].selection.begin(), jobs[i].selection.end());
    r.purpose = jobs[i].purpose;
    r.result = results[i];
  }
  calls_.push_back(std::move(call));
  return results;
}

namespace {

/// gp::CompiledBatchScorer with every call timed as a gp.score span. It
/// forwards the dependency queries, so cover::greedy_solve_batched picks
/// the same rescoring regime as it does for the untimed scorer.
class TimedScorer {
 public:
  TimedScorer(gp::CompiledBatchScorer inner, SpanLog& log,
              std::uint32_t parent, std::uint32_t run, long long& bundles)
      : inner_(inner), log_(&log), parent_(parent), run_(run),
        bundles_(&bundles) {}

  void operator()(const cover::BatchFeatureView& view,
                  std::span<double> out) const {
    ScopedSpan span(*log_, SpanName::kScore, parent_, run_);
    inner_(view, out);
    *bundles_ += static_cast<long long>(view.count);
  }
  [[nodiscard]] bool depends_on_bres() const noexcept {
    return inner_.depends_on_bres();
  }
  [[nodiscard]] bool depends_on_qcov() const noexcept {
    return inner_.depends_on_qcov();
  }

 private:
  gp::CompiledBatchScorer inner_;
  SpanLog* log_;
  std::uint32_t parent_;
  std::uint32_t run_;
  long long* bundles_;
};

class Replayer {
 public:
  Replayer(const bcpop::Instance& inst, bool parallel, SpanLog& log,
           std::uint32_t run, ReplayCounts& counts, CheckTally& tally)
      : inst_(inst),
        parallel_(parallel),
        log_(log),
        run_(run),
        counts_(counts),
        tally_(tally),
        ctx_(inst),
        // The evaluators' default capacities; the parallel evaluator
        // shards both caches 16 ways, the serial one keeps one shard.
        relax_(4096, parallel ? 16 : 1),
        memo_(4096, parallel ? 16 : 1) {}

  void replay_call(const RecordedCall& call) {
    counts_.jobs += static_cast<long long>(call.jobs.size());
    ScopedSpan root(log_,
                    call.batch ? SpanName::kReplayBatch
                               : SpanName::kReplayScalar,
                    call.span, run_);
    if (call.heuristic) {
      replay_heuristic(call, root.id());
    } else {
      for (const RecordedJob& job : call.jobs) replay_selection(job, root.id());
    }
  }

 private:
  /// The relaxation for this pricing, solved on a miss of the replay's
  /// cache (which mirrors the evaluator's, so it misses where the run did).
  bcpop::ShardedRelaxationCache::RelaxationPtr relaxation(
      const RecordedJob& job, std::uint32_t parent) {
    return relax_.get_or_compute(job.pricing, [&](std::span<const double> p) {
      ScopedSpan span(log_, SpanName::kLpSolve, parent, run_);
      cover::Relaxation r = bcpop::solve_relaxation(ctx_, p);
      ++counts_.lp_solves;
      counts_.lp_iterations += r.stats.iterations;
      return r;
    });
  }

  void check_bound(const cover::Relaxation& relax, const RecordedJob& job) {
    tally_.check(std::bit_cast<std::uint64_t>(relax.lower_bound) ==
                     std::bit_cast<std::uint64_t>(job.result.lower_bound),
                 "replay: relaxation bound differs from the run's");
  }

  void load_pricing(std::span<const double> pricing) {
    for (std::size_t j = 0; j < pricing.size(); ++j) {
      ctx_.ll.set_cost(j, pricing[j]);
    }
  }

  void finalize(const cover::SolveResult& solved,
                const cover::Relaxation& relax, const RecordedJob& job,
                std::uint32_t parent) {
    bcpop::Evaluation e;
    {
      ScopedSpan span(log_, SpanName::kFinalize, parent, run_);
      e = bcpop::finalize_evaluation(inst_, job.pricing, solved, relax,
                                     job.purpose);
    }
    tally_.check(e == job.result,
                 "replay: finalized evaluation differs from the run's");
  }

  void replay_heuristic(const RecordedCall& call, std::uint32_t root) {
    std::vector<bcpop::HeuristicJob> jobs;
    jobs.reserve(call.jobs.size());
    for (const RecordedJob& r : call.jobs) {
      jobs.push_back({r.pricing, &r.heuristic, r.purpose});
    }
    bcpop::HeuristicBatchPlan plan;
    {
      ScopedSpan span(log_, SpanName::kCompile, root, run_);
      plan = bcpop::plan_heuristic_batch(jobs, /*compiled_scoring=*/true);
    }
    counts_.programs += static_cast<long long>(plan.uniques.size());
    counts_.dedup += static_cast<long long>(plan.duplicates());

    const auto probe = [&](std::size_t u) {
      const RecordedJob& job = call.jobs[plan.uniques[u].job_index];
      bcpop::Evaluation cached;
      if (!memo_.lookup(plan.uniques[u].program->canonical_nodes(),
                        job.pricing, job.purpose, &cached)) {
        return false;
      }
      ++counts_.memo_hits;
      tally_.check(cached == job.result,
                   "replay: memo answer differs from the run's");
      return true;
    };
    const auto insert = [&](std::size_t u) {
      const RecordedJob& job = call.jobs[plan.uniques[u].job_index];
      memo_.insert(plan.uniques[u].program->canonical_nodes(), job.pricing,
                   job.purpose, job.result);
    };
    // The serial evaluator probes and inserts the memo unique by unique;
    // the parallel one probes every unique, then inserts the misses.
    if (!parallel_) {
      for (std::size_t u = 0; u < plan.uniques.size(); ++u) {
        if (probe(u)) continue;
        fresh_heuristic(call, plan.uniques[u], root);
        insert(u);
      }
    } else {
      std::vector<std::size_t> misses;
      for (std::size_t u = 0; u < plan.uniques.size(); ++u) {
        if (!probe(u)) misses.push_back(u);
      }
      for (const std::size_t u : misses) {
        fresh_heuristic(call, plan.uniques[u], root);
      }
      for (const std::size_t u : misses) insert(u);
    }
  }

  void fresh_heuristic(const RecordedCall& call,
                       const bcpop::HeuristicBatchPlan::Unique& unique,
                       std::uint32_t root) {
    ++counts_.fresh;
    const RecordedJob& job = call.jobs[unique.job_index];
    const gp::CompiledProgram& program = *unique.program;
    const auto relax = relaxation(job, root);
    check_bound(*relax, job);
    const bcpop::ConstructionBudget budget =
        bcpop::plan_construction(ctx_.guard, *relax);
    tally_.check(!budget.skip, "replay: construction budget exhausted");

    load_pricing(job.pricing);
    cover::SolveResult solved;
    {
      ScopedSpan greedy(log_, SpanName::kGreedy, root, run_);
      ++counts_.greedy_solves;
      if (program.is_static()) {
        // The static fast path of bcpop::solve_with_program: one scoring
        // sweep, then the sort-based greedy.
        ++counts_.static_solves;
        const std::size_t m = ctx_.ll.num_bundles();
        cover::GreedyScratch& gs = ctx_.greedy_scratch;
        cover::detail::static_masses(ctx_.ll, relax->duals, gs.qsum,
                                     gs.dual_mass);
        gs.xbar.assign(m, 0.0);
        for (std::size_t j = 0; j < m && j < relax->relaxed_x.size(); ++j) {
          gs.xbar[j] = relax->relaxed_x[j];
        }
        const double zero = 0.0;
        gp::CompiledProgram::TerminalBatch batch;
        const auto col = [&](gp::Terminal t) -> std::span<const double>& {
          return batch.columns[static_cast<std::size_t>(t)];
        };
        col(gp::Terminal::kCost) = ctx_.ll.costs();
        col(gp::Terminal::kQsum) = gs.qsum;
        col(gp::Terminal::kQcov) = {&zero, 1};
        col(gp::Terminal::kBres) = {&zero, 1};
        col(gp::Terminal::kDual) = gs.dual_mass;
        col(gp::Terminal::kXbar) = gs.xbar;
        batch.count = m;
        ctx_.static_scores.resize(m);
        {
          ScopedSpan score(log_, SpanName::kScore, greedy.id(), run_);
          program.evaluate_batch(batch, ctx_.static_scores, ctx_.reg_scratch);
        }
        counts_.bundles_scored += static_cast<long long>(m);
        solved = cover::greedy_solve_static(ctx_.ll, ctx_.static_scores,
                                            budget.options);
      } else {
        cover::GreedyBatchStats stats;
        const TimedScorer scorer(
            gp::CompiledBatchScorer(program, ctx_.reg_scratch), log_,
            greedy.id(), run_, counts_.bundles_scored);
        solved = cover::greedy_solve_batched(
            ctx_.ll, scorer, relax->duals, relax->relaxed_x, budget.options,
            &ctx_.greedy_scratch, &stats);
        counts_.rounds += static_cast<long long>(stats.rounds);
        counts_.bundles_rescored +=
            static_cast<long long>(stats.bundles_rescored);
        counts_.rescore_slots += static_cast<long long>(stats.rescore_slots);
      }
    }
    // The library's own entry point must pick the same bundles as the
    // timed re-implementation above, and both the same as the run.
    const cover::SolveResult oracle = bcpop::solve_with_program(
        ctx_, *relax, job.pricing, program, /*polish=*/false, nullptr,
        budget.options);
    tally_.check(solved.selection == oracle.selection &&
                     solved.selection == job.result.selection,
                 "replay: timed greedy selection differs from "
                 "bcpop::solve_with_program or the run");
    finalize(solved, *relax, job, root);
  }

  void replay_selection(const RecordedJob& job, std::uint32_t root) {
    ++counts_.fresh;
    const auto relax = relaxation(job, root);
    check_bound(*relax, job);
    const bcpop::ConstructionBudget budget =
        bcpop::plan_construction(ctx_.guard, *relax);
    tally_.check(!budget.skip, "replay: construction budget exhausted");
    cover::SolveResult solved;
    {
      ScopedSpan span(log_, SpanName::kRepair, root, run_);
      solved = bcpop::solve_with_selection(ctx_, *relax, job.pricing,
                                           job.selection, budget.options);
    }
    finalize(solved, *relax, job, root);
  }

  const bcpop::Instance& inst_;
  bool parallel_;
  SpanLog& log_;
  std::uint32_t run_;
  ReplayCounts& counts_;
  CheckTally& tally_;
  bcpop::EvalContext ctx_;
  bcpop::ShardedRelaxationCache relax_;
  bcpop::ScoreCache memo_;
};

}  // namespace

void replay(const bcpop::Instance& inst,
            const std::vector<RecordedCall>& calls, bool parallel,
            SpanLog& log, std::uint32_t run, ReplayCounts& counts,
            CheckTally& tally) {
  Replayer replayer(inst, parallel, log, run, counts, tally);
  for (const RecordedCall& call : calls) replayer.replay_call(call);
}

}  // namespace e2e
