// End-to-end CARBON/COBRA benchmark: the command-line program.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-dir <dir>]
//   e2e_bench --smoke
//
// --trace 0 solves a panel of instances the way users run the solvers,
// `core::CarbonSolver(instance, cfg).run()` or `cobra::CobraSolver(...)`,
// checks every result and prints the end-to-end metrics. --trace 1 runs
// the traced solve and the replay (trace.hpp) and prints the per-layer
// metrics and the exclusive layer table. The last line of standard output
// is always one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --smoke runs every check of both modes on tiny budgets, for all
// workloads, in seconds.
#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "calibrate.hpp"
#include "checks.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

namespace bcpop = carbon::bcpop;
namespace core = carbon::core;
namespace cobra = carbon::cobra;

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile of the ladder that has at least ten samples
/// beyond it (nearest rank); the maximum (p100) when there are fewer than
/// twenty samples.
struct Tail {
  double percentile = 100.0;
  double value = 0.0;
  std::size_t samples = 0;
};

[[nodiscard]] Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  t.value = v.back();
  const double n = static_cast<double>(v.size());
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const double rank = std::ceil(p / 100.0 * n);
    if (n - rank >= 10.0) {
      t.percentile = p;
      t.value = v[static_cast<std::size_t>(rank) - 1];
      break;
    }
  }
  return t;
}

/// A solver outcome, comparable bitwise (RunResult::operator== plus the
/// CARBON-only champion heuristic).
struct Outcome {
  core::RunResult run;
  carbon::gp::Tree best_heuristic;
  double best_heuristic_gap = 0.0;

  bool operator==(const Outcome& o) const {
    return run == o.run && best_heuristic == o.best_heuristic &&
           std::bit_cast<std::uint64_t>(best_heuristic_gap) ==
               std::bit_cast<std::uint64_t>(o.best_heuristic_gap);
  }
};

/// One panel instance, set up (instance generated, solver constructed)
/// and ready to run.
struct Prepared {
  std::unique_ptr<bcpop::Instance> inst;
  std::optional<core::CarbonSolver> carbon;
  std::optional<cobra::CobraSolver> cobra;
  core::CarbonConfig carbon_cfg;
  cobra::CobraConfig cobra_cfg;
};

[[nodiscard]] Prepared prepare(const Workload& w, long long budget,
                               std::uint64_t seed) {
  Prepared p;
  p.inst = std::make_unique<bcpop::Instance>(
      bcpop::make_paper_bcpop(w.paper_class, seed));
  if (w.cobra) {
    p.cobra_cfg = make_config<cobra::CobraConfig>(w, budget, seed);
    p.cobra.emplace(*p.inst, p.cobra_cfg);
  } else {
    p.carbon_cfg = make_config<core::CarbonConfig>(w, budget, seed);
    p.carbon.emplace(*p.inst, p.carbon_cfg);
  }
  return p;
}

[[nodiscard]] Outcome outcome_of(core::CarbonResult r) {
  Outcome o;
  o.best_heuristic = std::move(r.best_heuristic);
  o.best_heuristic_gap = r.best_heuristic_gap;
  o.run = std::move(static_cast<core::RunResult&>(r));
  return o;
}

[[nodiscard]] Outcome run_solver(Prepared& p) {
  return p.cobra ? Outcome{p.cobra->run(), {}, 0.0}
                 : outcome_of(p.carbon->run());
}

[[nodiscard]] GenerationAllowance allowance(const Prepared& p) {
  if (p.cobra) {
    const cobra::CobraConfig& c = p.cobra_cfg;
    const long long g = static_cast<long long>(std::max(
        {c.ul_population_size, c.ll_population_size, c.coevolution_pairs}));
    return {g, g};
  }
  const core::CarbonConfig& c = p.carbon_cfg;
  return {static_cast<long long>(c.ul_population_size),
          static_cast<long long>(c.gp_population_size *
                                     c.heuristic_sample_size +
                                 c.ul_population_size)};
}

/// Samples the process's OS thread count while a solve runs. Its own
/// thread is subtracted from what it reports. It counts only while active
/// (from construction on, unless set otherwise), so the benchmark's own
/// calibration threads are not counted.
class ThreadWatcher {
 public:
  ThreadWatcher()
      : thread_([this] {
          while (!stop_.load(std::memory_order_relaxed)) {
            {
              const std::lock_guard<std::mutex> lock(mu_);
              if (active_) max_seen_ = std::max(max_seen_, os_thread_count());
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
        }) {}
  ~ThreadWatcher() { stop(); }
  ThreadWatcher(const ThreadWatcher&) = delete;
  ThreadWatcher& operator=(const ThreadWatcher&) = delete;

  /// Starts or pauses counting. When this returns, no sample that started
  /// before it is still being taken.
  void set_active(bool active) {
    const std::lock_guard<std::mutex> lock(mu_);
    active_ = active;
  }

  /// Stops sampling; returns the most threads seen besides the watcher.
  std::size_t stop() {
    if (thread_.joinable()) {
      stop_.store(true, std::memory_order_relaxed);
      thread_.join();
    }
    return max_seen_ > 0 ? max_seen_ - 1 : 0;
  }

 private:
  std::atomic<bool> stop_{false};
  std::mutex mu_;
  bool active_ = true;        ///< guarded by mu_
  std::size_t max_seen_ = 0;  ///< written by thread_ only; read after join
  std::thread thread_;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const CheckTally& tally, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              tally.failed() == 0 ? "true" : "false", tally.attempted(),
              tally.failed());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void print_host(const Workload& w, std::size_t observed_threads) {
  const HostInfo h = host_info();
  const std::size_t threads = eval_threads_for(w);
  std::printf(
      "hardware: {\"nproc\": %zu, \"cpu_model\": \"%s\", \"simd_path\": "
      "\"%s\", \"simd_lanes\": %zu, \"build_type\": \"%s\", \"compiler\": "
      "\"%s\", \"participants\": %zu, \"eval_threads\": %zu, "
      "\"observed_os_threads\": %zu}\n",
      h.nproc, h.cpu_model.c_str(), h.simd_path.c_str(), h.simd_lanes,
      h.build_type.c_str(), h.compiler.c_str(), participants_of(threads),
      threads, observed_threads);
}

void check_threads(std::size_t observed, CheckTally& tally) {
  tally.check(observed >= 1 && observed <= hardware_threads(),
              "observed " + std::to_string(observed) +
                  " OS threads during run(), more than nproc " +
                  std::to_string(hardware_threads()) +
                  " (oversubscribed host)");
}

/// Panel size: about `seconds` of solving on the reference host.
[[nodiscard]] std::size_t panel_size(const Workload& w, double seconds) {
  return static_cast<std::size_t>(std::max(
      3.0, std::round(seconds / w.reference_solve_s)));
}

// ---------------------------------------------------------------------------
// End-to-end mode (tracing off).

constexpr int kSetupRepeats = 5;
constexpr int kCalibrationSamples = 5;
/// Solving time between two host samples; short solves share a sample.
constexpr double kCalibrationEveryS = 1.5;

/// Host speed now: the median of a few calibration samples, each taken on
/// `threads` threads at once.
[[nodiscard]] double host_sample(std::size_t threads) {
  std::vector<double> v;
  for (int i = 0; i < kCalibrationSamples; ++i) v.push_back(calibrate(threads));
  return median(v);
}

/// Untimed warm-up: smoke-budget solves of the first panel instance for
/// about `seconds` (at least one), so the first timed solve does not pay
/// for cold caches, allocator growth or idle cores.
void warm_up(const Workload& w, std::uint64_t seed, std::size_t threads,
             double seconds) {
  const Clock::time_point t0 = Clock::now();
  do {
    Prepared p = prepare(w, w.smoke_budget, panel_seed(seed, 0));
    (void)run_solver(p);
    (void)calibrate(threads);
  } while (seconds_since(t0) < seconds);
}

/// Times of one panel instance's solves: in reference-host seconds (see
/// calibrate.hpp) and as measured.
struct PanelEntry {
  Outcome first;
  long long evals = 0;
  std::vector<double> solve_s;
  std::vector<double> cpu_s;
  std::vector<double> wall_s;
  std::vector<double> measured_cpu_s;
};

/// Solves the panel of `k` instances once, then repeats panel solves
/// (checking each against the first) until `seconds` have passed and at
/// least `repeats` repeats ran. Each solve's times are scaled by the mean
/// host speed sampled before and after it; solves shorter than
/// kCalibrationEveryS are grouped so that samples stay a small part of the
/// run.
[[nodiscard]] std::vector<Metric> end_to_end(const Workload& w,
                                             long long budget,
                                             std::uint64_t seed,
                                             double seconds, std::size_t k,
                                             std::size_t repeats,
                                             CheckTally& tally) {
  std::vector<PanelEntry> panel(k);
  std::vector<double> setup_s;
  std::vector<double> host_s;
  const std::size_t threads = participants_of(eval_threads_for(w));
  ThreadWatcher watcher;
  watcher.set_active(false);
  warm_up(w, seed, threads, std::min(1.0, seconds));
  const Clock::time_point start = Clock::now();
  host_s.push_back(host_sample(threads));
  struct Solve {
    std::size_t entry;
    double wall_s;
    double cpu_s;
  };
  std::vector<Solve> segment;  // solves since the last host sample
  double segment_s = 0.0;
  for (std::size_t n = 0;; ++n) {
    const std::size_t i = n % k;
    const std::uint64_t ps = panel_seed(seed, i);
    const std::string label = std::string(w.name) + " panel " +
                              std::to_string(i) + " (seed " +
                              std::to_string(ps) + ")";
    // Set-up is repeated so its median is steady; the last one is run.
    std::optional<Prepared> p;
    for (int r = 0; r < kSetupRepeats; ++r) {
      p.reset();
      const Clock::time_point t0 = Clock::now();
      p.emplace(prepare(w, budget, ps));
      setup_s.push_back(seconds_since(t0));
    }
    watcher.set_active(true);
    const double cpu0 = process_cpu_s();
    const Clock::time_point t0 = Clock::now();
    Outcome o = run_solver(*p);
    const double wall = seconds_since(t0);
    const double cpu = process_cpu_s() - cpu0;
    watcher.set_active(false);

    PanelEntry& e = panel[i];
    e.wall_s.push_back(wall);
    e.measured_cpu_s.push_back(cpu);
    segment.push_back({i, wall, cpu});
    segment_s += wall;
    const bool more = n + 1 < k + repeats || seconds_since(start) < seconds;
    if (segment_s >= kCalibrationEveryS || !more) {
      host_s.push_back(host_sample(threads));
      const double scale =
          kReferenceCalibrationS /
          (0.5 * (host_s[host_s.size() - 2] + host_s.back()));
      for (const Solve& x : segment) {
        panel[x.entry].solve_s.push_back(x.wall_s * scale);
        panel[x.entry].cpu_s.push_back(x.cpu_s * scale);
      }
      segment.clear();
      segment_s = 0.0;
    }
    if (n < k) {
      check_result(*p->inst, o.run, budget, allowance(*p), label, tally);
      e.evals = o.run.ul_evaluations + o.run.ll_evaluations;
      e.first = std::move(o);
    } else {
      tally.check(o == e.first, label + ": repeated solve differs bitwise");
    }
    if (!more) break;
  }
  const std::size_t observed = watcher.stop();
  check_threads(observed, tally);
  print_host(w, observed);

  double solve = 0.0;
  double cpu = 0.0;
  double wall = 0.0;
  double measured_cpu = 0.0;
  double evals = 0.0;
  double gap = 0.0;
  double revenue = 0.0;
  long long solves = 0;
  for (const PanelEntry& e : panel) {
    solve += median(e.solve_s);
    cpu += median(e.cpu_s);
    wall += median(e.wall_s);
    measured_cpu += median(e.measured_cpu_s);
    evals += static_cast<double>(e.evals);
    gap += e.first.run.best_gap;
    revenue += e.first.run.best_ul_objective;
    solves += static_cast<long long>(e.solve_s.size());
  }
  const double kd = static_cast<double>(k);
  std::printf("workload %s seed %llu: budget %lld, panel of %zu instances, "
              "%lld solves in %.1f s\n",
              w.name, static_cast<unsigned long long>(seed), budget, k, solves,
              seconds_since(start));
  // Set-ups are spread over the whole run: scaled by its median sample.
  const double host = median(host_s);
  std::printf("host: calibration %.6f s (median of %zu host samples, each "
              "the median of %d on %zu threads; reference %.6f s); as "
              "measured: setup_s %.6g s, solve_s %.6f s, evals_per_s %.3f "
              "1/s, cpu_s %.6f s\n",
              host, host_s.size(), kCalibrationSamples, threads,
              kReferenceCalibrationS, median(setup_s), wall / kd,
              evals / wall, measured_cpu / kd);
  std::vector<Metric> m = {
      {"setup_s", median(setup_s) * kReferenceCalibrationS / host, "s"},
      {"solve_s", solve / kd, "s"},
      {"evals_per_s", evals / solve, "1/s"},
      {"cpu_s", cpu / kd, "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
      {"best_gap_pct", gap / kd, "%"},
      {"best_ul_revenue", revenue / kd, "revenue"},
  };
  for (const Metric& x : m) {
    std::printf("  %-16s %14.6f %s\n", x.name.c_str(), x.value, x.unit);
  }
  std::printf("  %-16s %14.6f %s\n", "failed_frac", tally.failed_frac(),
              "ratio");
  return m;
}

// ---------------------------------------------------------------------------
// Trace mode.

struct TraceTotals {
  std::size_t solves = 0;
  double untraced_s = 0.0;
  bcpop::BackendStats backend{};
  carbon::common::TaskScheduler::Stats sched{};
  ReplayCounts counts{};
};

void add_backend(bcpop::BackendStats& sum, const bcpop::BackendStats& now,
                 const bcpop::BackendStats& start) {
  sum.relaxation_cache_hits +=
      now.relaxation_cache_hits - start.relaxation_cache_hits;
  sum.relaxation_cache_misses +=
      now.relaxation_cache_misses - start.relaxation_cache_misses;
  sum.heuristic_dedup_hits +=
      now.heuristic_dedup_hits - start.heuristic_dedup_hits;
  sum.score_cache_hits += now.score_cache_hits - start.score_cache_hits;
}

/// One traced solve of `p` (already solved untraced as `untraced`).
/// Builds the solver's evaluator exactly as run() would, wraps it in the
/// TracingEvaluator, and runs the solver against the wrapper. Returns the
/// recorded calls for the replay.
[[nodiscard]] std::vector<RecordedCall> traced_solve(
    const Workload& w, Prepared& p, const Outcome& untraced, std::uint32_t run,
    const std::string& label, SpanLog& log, TraceTotals& totals,
    CheckTally& tally) {
  const std::uint32_t run_span = log.open(SpanName::kRun, kNoParent, run);
  const std::uint32_t construct =
      log.open(SpanName::kConstruct, run_span, run);
  SolverEvaluator ev =
      w.cobra ? make_solver_evaluator(*p.inst, p.cobra_cfg, false)
              : make_solver_evaluator(*p.inst, p.carbon_cfg,
                                      p.carbon_cfg.memetic_polish);
  log.close(construct);
  const bcpop::BackendStats backend0 = ev.owner->backend_stats();
  const carbon::common::TaskScheduler::Stats sched0 =
      ev.parallel != nullptr ? ev.parallel->sched_stats()
                             : carbon::common::TaskScheduler::Stats{};
  TracingEvaluator traced(*ev.owner, log, run_span, run);
  const Outcome o =
      w.cobra ? Outcome{cobra::CobraSolver(traced, p.cobra_cfg).run(), {}, 0.0}
              : outcome_of(core::CarbonSolver(traced, p.carbon_cfg).run());
  add_backend(totals.backend, ev.owner->backend_stats(), backend0);
  if (ev.parallel != nullptr) {
    const carbon::common::TaskScheduler::Stats s = ev.parallel->sched_stats();
    totals.sched.tasks += s.tasks - sched0.tasks;
    totals.sched.steals += s.steals - sched0.steals;
    totals.sched.idle_ns += s.idle_ns - sched0.idle_ns;
  }
  std::vector<RecordedCall> calls = std::move(traced.calls());
  ev.owner.reset();  // a solver's run() ends by destroying its evaluator
  log.close(run_span);

  tally.check(o == untraced, label + ": traced result differs from the "
                                     "untraced run");
  return calls;
}

/// Per-name span totals of a span log.
struct SpanTotals {
  std::map<SpanName, double> total_s;
  std::map<SpanName, double> self_s;
  /// Totals of the spans replayed for batch calls (not scalar calls).
  std::map<SpanName, double> batch_s;
  std::map<SpanName, std::vector<double>> durations;

  [[nodiscard]] static double get(const std::map<SpanName, double>& m,
                                  SpanName n) {
    const auto it = m.find(n);
    return it == m.end() ? 0.0 : it->second;
  }
  [[nodiscard]] std::vector<double> scaled(SpanName n, double scale) const {
    std::vector<double> v;
    const auto it = durations.find(n);
    if (it != durations.end()) {
      for (const double d : it->second) v.push_back(d * scale);
    }
    return v;
  }
  /// Replayed layer work for batch calls (gp.score sits inside
  /// cover.greedy, so it is not added again).
  [[nodiscard]] double batch_work_s() const {
    double w = 0.0;
    for (const SpanName n : {SpanName::kCompile, SpanName::kLpSolve,
                             SpanName::kGreedy, SpanName::kRepair,
                             SpanName::kFinalize}) {
      w += get(batch_s, n);
    }
    return w;
  }
};

[[nodiscard]] SpanTotals sum_spans(const SpanLog& log) {
  SpanTotals t;
  const std::vector<Span>& spans = log.spans();
  std::vector<double> child_s(spans.size(), 0.0);
  // Replay roots hang off the run spans they replay, for attribution only:
  // they run after the solve, so they neither cover its time nor inherit
  // its root. Parents always precede their children.
  std::vector<std::size_t> root(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const bool replay_root = s.name == SpanName::kReplayBatch ||
                             s.name == SpanName::kReplayScalar;
    root[i] = s.parent == kNoParent || replay_root ? i : root[s.parent];
    if (s.parent != kNoParent && !replay_root) {
      child_s[s.parent] += s.seconds();
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    t.total_s[s.name] += s.seconds();
    t.self_s[s.name] += s.seconds() - child_s[i];
    if (spans[root[i]].name == SpanName::kReplayBatch) {
      t.batch_s[s.name] += s.seconds();
    }
    t.durations[s.name].push_back(s.seconds());
  }
  return t;
}

[[nodiscard]] std::vector<Metric> trace_mode(const Workload& w,
                                             long long budget,
                                             std::uint64_t seed,
                                             double seconds, std::size_t k,
                                             const std::string& spans_path,
                                             CheckTally& tally) {
  SpanLog log;
  TraceTotals totals;
  ThreadWatcher watcher;
  const Clock::time_point start = Clock::now();
  // Traces panel instances while the next one is expected to finish
  // within `seconds`, give or take 15% (always at least one).
  for (std::size_t i = 0;
       i < k && (i == 0 || seconds_since(start) * static_cast<double>(i + 1) /
                                   static_cast<double>(i) <=
                               1.15 * seconds);
       ++i) {
    const std::uint64_t ps = panel_seed(seed, i);
    const std::string label = std::string(w.name) + " panel " +
                              std::to_string(i) + " (seed " +
                              std::to_string(ps) + ")";
    Prepared p = prepare(w, budget, ps);
    // Untraced solves before and after the traced one; their mean is the
    // untraced time, so first-solve effects and drift do not land on
    // trace.overhead_frac.
    Clock::time_point t0 = Clock::now();
    const Outcome untraced = run_solver(p);
    double untraced_s = seconds_since(t0);
    check_result(*p.inst, untraced.run, budget, allowance(p), label, tally);
    const std::uint32_t run = static_cast<std::uint32_t>(i);
    const std::vector<RecordedCall> calls =
        traced_solve(w, p, untraced, run, label, log, totals, tally);
    t0 = Clock::now();
    tally.check(run_solver(p) == untraced,
                label + ": repeated solve differs bitwise");
    untraced_s += seconds_since(t0);
    totals.untraced_s += 0.5 * untraced_s;
    replay(*p.inst, calls, eval_threads_for(w) != 1, log, run, totals.counts,
           tally);
    ++totals.solves;
  }
  const std::size_t observed = watcher.stop();
  check_threads(observed, tally);
  print_host(w, observed);

  const SpanTotals t = sum_spans(log);
  const auto total = [&](SpanName n) { return SpanTotals::get(t.total_s, n); };
  const double n = static_cast<double>(totals.solves);
  const double participants =
      static_cast<double>(participants_of(eval_threads_for(w)));
  const ReplayCounts& c = totals.counts;
  const bcpop::BackendStats& b = totals.backend;

  // Replay fidelity against the run's own counters.
  const long long run_fresh = c.jobs - b.heuristic_dedup_hits -
                              b.score_cache_hits;
  tally.check(c.fresh == run_fresh && c.dedup == b.heuristic_dedup_hits &&
                  c.memo_hits == b.score_cache_hits,
              "replay redid different work than the run (fresh " +
                  std::to_string(c.fresh) + " vs " +
                  std::to_string(run_fresh) + ")");
  std::printf("replay: %lld jobs, %lld fresh, %lld dedup, %lld memo hits, "
              "%lld LP solves | run backend: %lld dedup hits, %lld "
              "cross-generation hits, %lld relaxation misses, %lld hits "
              "(full replay, no sampling)\n",
              c.jobs, c.fresh, c.dedup, c.memo_hits, c.lp_solves,
              b.heuristic_dedup_hits, b.score_cache_hits,
              b.relaxation_cache_misses, b.relaxation_cache_hits);

  const double batch_s = total(SpanName::kHeuristicBatch) +
                         total(SpanName::kSelectionBatch);
  const double batch_work_s = t.batch_work_s();
  const double overhead_s = participants * batch_s - batch_work_s;
  const double traced_s = total(SpanName::kRun);
  const std::vector<double> batches_ms = [&] {
    std::vector<double> v = t.scaled(SpanName::kHeuristicBatch, 1e3);
    const std::vector<double> s = t.scaled(SpanName::kSelectionBatch, 1e3);
    v.insert(v.end(), s.begin(), s.end());
    return v;
  }();
  const Tail batch_tail = tail_of(batches_ms);
  const std::vector<double> lp_us = t.scaled(SpanName::kLpSolve, 1e6);
  const Tail lp_tail = tail_of(lp_us);
  const double relax_lookups = static_cast<double>(
      b.relaxation_cache_hits + b.relaxation_cache_misses);
  const double solver_self = SpanTotals::get(t.self_s, SpanName::kRun);

  std::vector<Metric> m = {
      {"core.self_s", w.cobra ? 0.0 : solver_self / n, "s"},
      {"cobra.self_s", w.cobra ? solver_self / n : 0.0, "s"},
      {"bcpop.batch_s", batch_s / n, "s"},
      {"bcpop.batch_p50_ms", median(batches_ms), "ms"},
      {"bcpop.batch_tail_ms", batch_tail.value, "ms"},
      {"bcpop.scalar_s", total(SpanName::kScalarEval) / n, "s"},
      {"bcpop.construct_s", total(SpanName::kConstruct) / n, "s"},
      {"bcpop.finalize_s", total(SpanName::kFinalize) / n, "s"},
      {"bcpop.jobs", static_cast<double>(c.jobs) / n, "count"},
      {"bcpop.unique_frac",
       c.jobs == 0 ? 0.0
                   : static_cast<double>(run_fresh) /
                         static_cast<double>(c.jobs),
       "ratio"},
      {"bcpop.relax_hit_frac",
       relax_lookups == 0.0
           ? 0.0
           : static_cast<double>(b.relaxation_cache_hits) / relax_lookups,
       "ratio"},
      {"bcpop.relax_misses",
       static_cast<double>(b.relaxation_cache_misses) / n, "count"},
      {"bcpop.parallel_eff",
       batch_s == 0.0 ? 0.0 : batch_work_s / (participants * batch_s),
       "ratio"},
      {"bcpop.overhead_s", overhead_s / n, "s"},
      {"common.sched_tasks", static_cast<double>(totals.sched.tasks) / n,
       "count"},
      {"common.sched_steals", static_cast<double>(totals.sched.steals) / n,
       "count"},
      {"common.sched_idle_s",
       static_cast<double>(totals.sched.idle_ns) * 1e-9 / n, "s"},
      {"lp.solves", static_cast<double>(c.lp_solves) / n, "count"},
      {"lp.solve_s", total(SpanName::kLpSolve) / n, "s"},
      {"lp.solve_us_p50", median(lp_us), "us"},
      {"lp.solve_us_tail", lp_tail.value, "us"},
      {"lp.iters_per_solve",
       c.lp_solves == 0 ? 0.0
                        : static_cast<double>(c.lp_iterations) /
                              static_cast<double>(c.lp_solves),
       "count"},
      {"gp.programs", static_cast<double>(c.programs) / n, "count"},
      {"gp.compile_s", total(SpanName::kCompile) / n, "s"},
      {"gp.score_s", total(SpanName::kScore) / n, "s"},
      {"gp.score_ns_per_bundle",
       c.bundles_scored == 0
           ? 0.0
           : total(SpanName::kScore) * 1e9 /
                 static_cast<double>(c.bundles_scored),
       "ns"},
      {"cover.greedy_s", total(SpanName::kGreedy) / n, "s"},
      {"cover.select_s", SpanTotals::get(t.self_s, SpanName::kGreedy) / n,
       "s"},
      {"cover.rounds", static_cast<double>(c.rounds) / n, "count"},
      {"cover.rescored_frac",
       c.rescore_slots == 0 ? 0.0
                            : static_cast<double>(c.bundles_rescored) /
                                  static_cast<double>(c.rescore_slots),
       "ratio"},
      {"cover.static_frac",
       c.greedy_solves == 0 ? 0.0
                            : static_cast<double>(c.static_solves) /
                                  static_cast<double>(c.greedy_solves),
       "ratio"},
      {"cover.repair_s", total(SpanName::kRepair) / n, "s"},
      {"cover.repair_us_p50", median(t.scaled(SpanName::kRepair, 1e6)),
       "us"},
      {"trace.overhead_frac",
       (traced_s - totals.untraced_s) / totals.untraced_s, "ratio"},
  };

  std::printf("workload %s seed %llu: budget %lld, %zu traced solves, "
              "%.0f participants; bcpop.batch_tail_ms is p%g of %zu "
              "batches, lp.solve_us_tail is p%g of %zu solves\n",
              w.name, static_cast<unsigned long long>(seed), budget,
              totals.solves, participants, batch_tail.percentile,
              batch_tail.samples, lp_tail.percentile, lp_tail.samples);
  // Exclusive layer table: seconds per traced solve. Layers replayed for
  // batch calls are participant-seconds divided by the participant count,
  // so together with bcpop.overhead they split the batch wall time.
  struct Row {
    const char* name;
    double s;
  };
  const double per_batch = 1.0 / (participants * n);
  const auto batch_layer = [&](SpanName name) {
    return SpanTotals::get(t.batch_s, name) * per_batch;
  };
  const std::vector<Row> rows = {
      {w.cobra ? "cobra.self" : "core.self", solver_self / n},
      {"bcpop.construct", total(SpanName::kConstruct) / n},
      {"trace.record", total(SpanName::kRecord) / n},
      {"bcpop.scalar_eval", total(SpanName::kScalarEval) / n},
      {"gp.compile", batch_layer(SpanName::kCompile)},
      {"lp.solve", batch_layer(SpanName::kLpSolve)},
      {"gp.score", batch_layer(SpanName::kScore)},
      {"cover.select",
       batch_layer(SpanName::kGreedy) - batch_layer(SpanName::kScore)},
      {"cover.repair", batch_layer(SpanName::kRepair)},
      {"bcpop.finalize", batch_layer(SpanName::kFinalize)},
      {"bcpop.overhead", overhead_s * per_batch},
  };
  double sum = 0.0;
  std::printf("exclusive layer table (s per solve):\n");
  for (const Row& r : rows) {
    sum += r.s;
    std::printf("  %-18s %10.4f  %5.1f%%\n", r.name, r.s,
                100.0 * r.s / (traced_s / n));
  }
  std::printf("  %-18s %10.4f\n  %-18s %10.4f\n  %-18s %10.2e  (traced "
              "solve_s minus the rows; bcpop.overhead is the batch time "
              "the replayed layers do not explain)\n",
              "sum", sum, "solve_s (traced)", traced_s / n, "residual",
              traced_s / n - sum);
  for (const Metric& x : m) {
    std::printf("  %-24s %14.6f %s\n", x.name.c_str(), x.value, x.unit);
  }
  if (!spans_path.empty() && !log.write_tsv(spans_path)) {
    std::fprintf(stderr, "warning: could not write spans to %s\n",
                 spans_path.c_str());
  }
  return m;
}

// ---------------------------------------------------------------------------

int smoke() {
  int failures = 0;
  for (const Workload& w : kWorkloads) {
    CheckTally tally;
    (void)end_to_end(w, w.smoke_budget, 1, 0.0, 2, 1, tally);
    (void)trace_mode(w, w.smoke_budget, 1, 0.0, 2, "", tally);
    std::printf("smoke %s: %lld checks, %lld failed\n", w.name,
                tally.attempted(), tally.failed());
    failures += tally.failed() == 0 ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: e2e_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-dir <dir>]\n"
               "       e2e_bench --smoke\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

[[nodiscard]] std::optional<long long> parse_int(const std::string& s) {
  std::size_t used = 0;
  try {
    const long long v = std::stoll(s, &used);
    if (used == s.size() && v >= 0) return v;
  } catch (const std::exception&) {
  }
  return std::nullopt;
}

int run_main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") return smoke();
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return usage(("bad argument " + key).c_str());
    }
    args[key.substr(2)] = argv[++i];
  }
  for (const auto& [key, value] : args) {
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace" && key != "spans-dir") {
      return usage(("unknown flag --" + key).c_str());
    }
  }
  const Workload* w =
      args.count("workload") ? find_workload(args["workload"]) : nullptr;
  if (w == nullptr) return usage("missing or unknown --workload");
  const auto seed = parse_int(args.count("seed") ? args["seed"] : "0");
  const auto secs = parse_int(args.count("seconds") ? args["seconds"] : "10");
  const auto trace = parse_int(args.count("trace") ? args["trace"] : "0");
  if (!seed || !secs || *secs < 1 || !trace || *trace > 1) {
    return usage("--seed, --seconds (>= 1) and --trace (0|1) take integers");
  }
  const double seconds = static_cast<double>(*secs);
  const std::size_t k = panel_size(*w, seconds);
  CheckTally tally;
  std::vector<Metric> metrics;
  if (*trace == 0) {
    metrics = end_to_end(*w, w->budget, static_cast<std::uint64_t>(*seed),
                         seconds, k, 0, tally);
  } else {
    std::string spans_path;
    if (args.count("spans-dir")) {
      std::filesystem::create_directories(args["spans-dir"]);
      spans_path = args["spans-dir"] + "/" + w->name + "-seed" +
                   std::to_string(*seed) + ".tsv";
    }
    metrics = trace_mode(*w, w->budget, static_cast<std::uint64_t>(*seed),
                         seconds, k, spans_path, tally);
  }
  print_result(tally, metrics);
  return tally.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
