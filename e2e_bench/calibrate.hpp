// Host-speed calibration for the end-to-end benchmark.
//
// Shared hosts change speed by tens of percent over seconds to minutes
// (neighbours on the same cores and caches), which moves every wall time
// the benchmark reports. A fixed kernel that belongs to the benchmark, not
// to the solvers, is timed before and after every solve (short solves share
// samples), on as many threads as the solve uses. Solve times are then reported in
// reference-host seconds: measured time x kReferenceCalibrationS / kernel
// time. A change to the solvers moves them; a change of host speed mostly
// does not.
#pragma once

#include <cstddef>

namespace e2e {

/// A typical calibration sample on the reference host (4-core Intel Xeon
/// VM, AVX2, gcc 12.2, Release). It only sets the unit of the reported
/// times; comparisons on one host do not depend on it.
inline constexpr double kReferenceCalibrationS = 0.0075;

/// Runs the calibration kernel once on each of `threads` threads at the
/// same time; returns the mean per-thread CPU seconds it took. CPU time,
/// not wall time, so that waiting to be scheduled does not count; how fast
/// the cores run while busy does.
[[nodiscard]] double calibrate(std::size_t threads);

}  // namespace e2e
