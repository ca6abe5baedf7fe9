#include "calibrate.hpp"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

namespace e2e {
namespace {

/// Keeps the kernel's result alive so the compiler cannot drop the work.
std::atomic<double> g_sink{0.0};

constexpr std::size_t kLanes = 512;  // bundles scored per sweep
constexpr std::size_t kRows = 48;    // dense tableau side
constexpr int kReps = 1500;
constexpr std::size_t kBundles = 500;
constexpr std::size_t kServices = 30;
constexpr int kMarkets = 20;

/// The arithmetic the solvers do: elementwise float arithmetic over a
/// bundle array (GP scoring), an argmax scan (greedy selection) and dense
/// pivot row operations (simplex). Its inputs come from `salt` at run
/// time, so nothing folds at compile time.
[[nodiscard]] double compute_kernel(std::uint64_t salt) {
  std::vector<float> a(kLanes), b(kLanes), c(kLanes), s(kLanes);
  std::vector<double> t(kRows * kRows);
  std::uint64_t x = salt | 1;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  };
  for (std::size_t i = 0; i < kLanes; ++i) {
    a[i] = static_cast<float>(next() + 0.5);
    b[i] = static_cast<float>(next() + 0.5);
    c[i] = static_cast<float>(next());
  }
  for (double& v : t) v = next() + 1.0;

  double acc = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const float k = static_cast<float>(rep % 7) * 0.125f + 1.0f;
    for (std::size_t i = 0; i < kLanes; ++i) {
      const float d = b[i] + k;
      const float v = (a[i] * k - c[i]) / d + a[i] * c[i];
      s[i] = v > 1e6f ? 1e6f : v;
    }
    std::size_t best = 0;
    for (std::size_t i = 1; i < kLanes; ++i) {
      if (s[i] > s[best]) best = i;
    }
    c[best] *= 0.5f;
    acc += s[best];

    const std::size_t p = static_cast<std::size_t>(rep) % kRows;
    const double inv = 1.0 / t[p * kRows + p];
    for (std::size_t r = 0; r < kRows; ++r) {
      if (r == p) continue;
      const double f = t[r * kRows + p] * inv;
      for (std::size_t j = 0; j < kRows; ++j) {
        t[r * kRows + j] -= f * t[p * kRows + j];
      }
      t[r * kRows + r] += 1.0;  // keeps the tableau away from singular
    }
    acc += std::fabs(t[(p + 1) % kRows * kRows + p]) * 1e-9;
  }
  return acc;
}

/// The memory traffic of building an instance: many small allocations
/// filled with random quantities, a sort of bundle indices by unit cost,
/// and a pass over the result.
[[nodiscard]] double market_kernel(std::uint64_t salt) {
  std::uint64_t x = salt * 0x9e3779b97f4a7c15ull + 1;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  };
  double acc = 0.0;
  for (int m = 0; m < kMarkets; ++m) {
    std::vector<std::vector<double>> quantity(kBundles);
    std::vector<double> unit_cost(kBundles);
    for (std::size_t b = 0; b < kBundles; ++b) {
      quantity[b].resize(kServices);
      double total = 0.0;
      for (double& q : quantity[b]) {
        q = next() < 0.3 ? next() * 10.0 : 0.0;
        total += q;
      }
      unit_cost[b] = (next() + 0.1) / (total + 1.0);
    }
    std::vector<std::uint32_t> order(kBundles);
    for (std::size_t b = 0; b < kBundles; ++b) {
      order[b] = static_cast<std::uint32_t>(b);
    }
    std::sort(order.begin(), order.end(),
              [&unit_cost](std::uint32_t a, std::uint32_t b) {
                return unit_cost[a] < unit_cost[b];
              });
    for (std::size_t r = 0; r < kBundles; r += 7) {
      acc += quantity[order[r]][r % kServices];
    }
  }
  return acc;
}

[[nodiscard]] double kernel(std::uint64_t salt) {
  return compute_kernel(salt) + market_kernel(salt);
}

[[nodiscard]] double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double calibrate(std::size_t threads) {
  threads = std::max<std::size_t>(1, threads);
  std::vector<double> cpu_s(threads, 0.0);
  std::vector<double> out(threads, 0.0);
  const auto body = [&cpu_s, &out](std::size_t i) {
    const double t0 = thread_cpu_s();
    out[i] = kernel(i);
    cpu_s[i] = thread_cpu_s() - t0;
  };
  {
    std::vector<std::jthread> workers;
    workers.reserve(threads - 1);
    for (std::size_t i = 1; i < threads; ++i) workers.emplace_back(body, i);
    body(0);
  }  // joins the workers
  double sum = 0.0;
  double total_s = 0.0;
  for (std::size_t i = 0; i < threads; ++i) {
    sum += out[i];
    total_s += cpu_s[i];
  }
  g_sink.store(sum, std::memory_order_relaxed);
  return total_s / static_cast<double>(threads);
}

}  // namespace e2e
