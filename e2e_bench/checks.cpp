#include "checks.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "carbon/bilevel/gap.hpp"
#include "carbon/cover/relaxation.hpp"
#include "carbon/gp/simd.hpp"
#include "workloads.hpp"

namespace e2e {

bool CheckTally::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

namespace {

[[nodiscard]] bool close_rel(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max({1.0, std::abs(a), std::abs(b)});
}

[[nodiscard]] bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

void check_result(const carbon::bcpop::Instance& inst,
                  const carbon::core::RunResult& result, long long budget,
                  GenerationAllowance allowance, const std::string& label,
                  CheckTally& tally) {
  namespace cover = carbon::cover;
  const carbon::bcpop::Evaluation& best = result.best_evaluation;
  const bool real =
      tally.check(std::isfinite(result.best_gap) && result.best_gap != 1e9 &&
                      result.best_pricing.size() == inst.num_owned() &&
                      best.ll_feasible &&
                      best.selection.size() == inst.num_bundles(),
                  label + ": result is a sentinel (gap 1e9, empty pricing "
                          "or infeasible best evaluation)");
  if (!real) return;

  // Coverage, counted here from the market's quantities rather than asked
  // of the library.
  const cover::Instance& market = inst.market();
  bool covers = true;
  for (std::size_t k = 0; k < market.num_services(); ++k) {
    long long supplied = 0;
    for (std::size_t j = 0; j < market.num_bundles(); ++j) {
      if (best.selection[j]) supplied += market.quantity(j, k);
    }
    covers = covers && supplied >= market.demand(k);
  }
  tally.check(covers, label + ": best selection leaves a demand uncovered");

  const double revenue =
      inst.leader_revenue(result.best_pricing, best.selection);
  tally.check(same_bits(revenue, result.best_ul_objective) &&
                  same_bits(revenue, best.ul_objective),
              label + ": leader revenue does not recompute bitwise");

  const cover::Instance priced = inst.lower_level_instance(result.best_pricing);
  const cover::Relaxation cold = cover::relax(priced);
  const double cost = priced.selection_cost(best.selection);
  const double gap = carbon::bilevel::percent_gap(cost, cold.lower_bound);
  tally.check(cold.feasible && close_rel(cold.lower_bound, best.lower_bound,
                                         1e-9),
              label + ": cold relaxation bound disagrees with the run's");
  tally.check(close_rel(cost, best.ll_objective, 1e-9) &&
                  close_rel(gap, best.gap_percent, 1e-9) &&
                  result.best_gap <= best.gap_percent,
              label + ": recomputed gap disagrees with the run's");

  const bool within =
      result.ul_evaluations <= budget + allowance.ul &&
      result.ll_evaluations <= budget + allowance.ll &&
      (result.ul_evaluations >= budget || result.ll_evaluations >= budget);
  tally.check(within, label + ": evaluation counts (" +
                          std::to_string(result.ul_evaluations) + " UL, " +
                          std::to_string(result.ll_evaluations) +
                          " LL) do not stop within one generation past " +
                          std::to_string(budget));
}

HostInfo host_info() {
  HostInfo h;
  h.nproc = hardware_threads();
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        h.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  h.simd_path = carbon::gp::simd::path_name();
  h.simd_lanes = carbon::gp::simd::lanes();
  h.build_type = E2E_BUILD_TYPE;
#if defined(__clang__)
  h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  h.compiler = std::string("gcc ") + __VERSION__;
#else
  h.compiler = "unknown";
#endif
  return h;
}

std::size_t os_thread_count() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<std::size_t>(std::stoul(line.substr(8)));
    }
  }
  return 0;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

}  // namespace e2e
