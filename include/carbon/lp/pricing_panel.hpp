// Tiled copy of an LP's structural columns, laid out for the simplex pricing
// sweep (every reduced cost d_j = c_j - A_j . y, once per pivot).
//
// Columns are grouped into tiles of kWidth consecutive columns. Each tile
// stores the ascending list of rows in which any of its columns has an
// entry, and for each such row the kWidth coefficients, 0.0 where a column
// has no entry (and for the padding columns past the last real one). A tile
// then computes kWidth dot products with kWidth independent accumulators —
// one pass over its rows, no per-column serial add chain.
//
// Exactness: every column still sums A(i, j) * y_i in ascending row order,
// starting from +0.0, with a separate multiply and add, so the result equals
// the per-column sparse sum bit for bit. A padded or absent entry adds
// 0.0 * y_i = +-0.0, which never changes an accumulator: a sum that starts
// at +0.0 can never become -0.0 under round-to-nearest. That argument needs
// every y_i to be finite (0.0 * inf is NaN), the same precondition the
// dense reference kernels (SimplexOptions::use_dense_kernels) have.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "carbon/lp/problem.hpp"

namespace carbon::lp {

class PricingPanel {
 public:
  /// Columns per tile: a compile-time constant, not a tuning knob.
  static constexpr std::size_t kWidth = 8;

  PricingPanel() = default;
  /// Builds the panel of `problem`'s structural columns (row indices must be
  /// strictly increasing per column, as Problem::validate() checks).
  explicit PricingPanel(const Problem& problem);

  [[nodiscard]] std::size_t num_cols() const noexcept { return num_cols_; }
  [[nodiscard]] std::size_t num_rows() const noexcept { return num_rows_; }
  [[nodiscard]] std::size_t num_tiles() const noexcept {
    return tile_begin_.empty() ? 0 : tile_begin_.size() - 1;
  }
  /// Stored (row, tile) entries, each holding kWidth coefficients.
  [[nodiscard]] std::size_t num_entries() const noexcept {
    return rows_.size();
  }

  /// out[j] = sum_i A(i, j) * y_i for every structural column j, summed in
  /// ascending row order from +0.0 with a separate multiply and add.
  /// Requires y.size() == num_rows(), every y_i finite, and
  /// out.size() >= num_cols(); out[j] for j >= num_cols() is not written.
  void dot_all(std::span<const double> y, std::span<double> out) const;

 private:
  std::size_t num_cols_ = 0;
  std::size_t num_rows_ = 0;
  /// Tile t owns entries [tile_begin_[t], tile_begin_[t + 1]).
  std::vector<std::uint32_t> tile_begin_;
  /// Row of each entry, ascending within a tile.
  std::vector<std::int32_t> rows_;
  /// kWidth coefficients per entry: coef_[e * kWidth + l] = A(rows_[e],
  /// t * kWidth + l).
  std::vector<double> coef_;
};

}  // namespace carbon::lp
