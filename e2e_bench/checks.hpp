// Output checks and host facts for the end-to-end benchmark.
#pragma once

#include <cstddef>
#include <string>

#include "carbon/bcpop/instance.hpp"
#include "carbon/core/result.hpp"

namespace e2e {

/// Counts checks attempted and failed; every failure is reported on stderr
/// with what was checked, so a failing run says why.
class CheckTally {
 public:
  /// Records one check; returns `ok`.
  bool check(bool ok, const std::string& what);

  [[nodiscard]] long long attempted() const noexcept { return attempted_; }
  [[nodiscard]] long long failed() const noexcept { return failed_; }
  [[nodiscard]] double failed_frac() const noexcept {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }

 private:
  long long attempted_ = 0;
  long long failed_ = 0;
};

/// Evaluations one generation may add past the budget check, per level.
struct GenerationAllowance {
  long long ul = 0;
  long long ll = 0;
};

/// Checks one solver result against the instance it was computed on:
///  * a sentinel gap (1e9, or not finite) or an empty pricing is a failure;
///  * best_evaluation.selection covers every service demand;
///  * Instance::leader_revenue recomputes best_ul_objective bitwise;
///  * the gap recomputed from a fresh, cold cover::relax of the priced
///    market agrees with best_evaluation to 1e-9 relative, and best_gap is
///    no worse than it;
///  * the charged evaluations stop within one generation past the budget.
void check_result(const carbon::bcpop::Instance& inst,
                  const carbon::core::RunResult& result, long long budget,
                  GenerationAllowance allowance, const std::string& label,
                  CheckTally& tally);

/// Facts about the host and build that a result must carry.
struct HostInfo {
  std::size_t nproc = 1;
  std::string cpu_model;
  std::string simd_path;
  std::size_t simd_lanes = 1;
  std::string build_type;
  std::string compiler;
};

[[nodiscard]] HostInfo host_info();

/// OS threads of this process right now (/proc/self/status), or 0 when
/// that file cannot be read.
[[nodiscard]] std::size_t os_thread_count();

/// Peak resident set size of this process in MiB (getrusage).
[[nodiscard]] double peak_rss_mib();

/// User + system CPU seconds consumed by this process so far.
[[nodiscard]] double process_cpu_s();

}  // namespace e2e
