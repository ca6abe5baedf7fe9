#include "carbon/lp/simplex.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace carbon::lp {

PricingPanel::PricingPanel(const Problem& problem)
    : num_cols_(problem.num_vars()), num_rows_(problem.num_rows()) {
  const std::size_t tiles = (num_cols_ + kWidth - 1) / kWidth;
  tile_begin_.reserve(tiles + 1);
  tile_begin_.push_back(0);
  // One tile at a time: scatter its columns into a dense rows x kWidth
  // block (zero where a column has no entry), then emit the rows any column
  // touched, in ascending order.
  std::vector<double> block(num_rows_ * kWidth, 0.0);
  std::vector<unsigned char> touched(num_rows_, 0);
  for (std::size_t t = 0; t < tiles; ++t) {
    const std::size_t first = t * kWidth;
    const std::size_t width = std::min(kWidth, num_cols_ - first);
    for (std::size_t l = 0; l < width; ++l) {
      const SparseColumn& col = problem.columns[first + l];
      for (std::size_t k = 0; k < col.nnz(); ++k) {
        const auto r = static_cast<std::size_t>(col.rows[k]);
        block[r * kWidth + l] = col.values[k];
        touched[r] = 1;
      }
    }
    for (std::size_t r = 0; r < num_rows_; ++r) {
      if (!touched[r]) continue;
      rows_.push_back(static_cast<std::int32_t>(r));
      double* src = block.data() + r * kWidth;
      coef_.insert(coef_.end(), src, src + kWidth);
      std::fill(src, src + kWidth, 0.0);
      touched[r] = 0;
    }
    tile_begin_.push_back(static_cast<std::uint32_t>(rows_.size()));
  }
}

void PricingPanel::dot_all(std::span<const double> y,
                           std::span<double> out) const {
  const std::size_t tiles = num_tiles();
  for (std::size_t t = 0; t < tiles; ++t) {
    // kWidth independent accumulators, each the ascending-row sum of one
    // column; the fixed-width inner loop maps onto vector lanes without
    // reassociating any column's sum.
    double acc[kWidth] = {};
    const std::size_t end = tile_begin_[t + 1];
    for (std::size_t e = tile_begin_[t]; e < end; ++e) {
      const double yi = y[static_cast<std::size_t>(rows_[e])];
      const double* c = coef_.data() + e * kWidth;
      for (std::size_t l = 0; l < kWidth; ++l) acc[l] += c[l] * yi;
    }
    const std::size_t first = t * kWidth;
    const std::size_t width = std::min(kWidth, num_cols_ - first);
    std::copy(acc, acc + width,
              out.begin() + static_cast<std::ptrdiff_t>(first));
  }
}

Solution solve(const Problem& problem, const SimplexOptions& options,
               Basis* warm) {
  const std::string err = problem.validate();
  if (!err.empty()) {
    throw std::invalid_argument("lp::solve: malformed problem: " + err);
  }
  detail::SimplexSolver solver(problem, problem.objective, nullptr, options);
  return solver.run(warm);
}

Solution solve(const ProblemFamily& family, const SimplexOptions& options,
               Basis* warm, SolveScratch* scratch) {
  // ProblemFamily validated and built the panel at construction.
  detail::SimplexSolver solver(family.constraints(), family.objective(),
                               &family.panel(), options, scratch);
  return solver.run(warm);
}

namespace detail {

EnteringChoice choose_entering(std::span<const double> dir,
                               std::span<const double> d,
                               double optimality_tol, bool bland) {
  const std::size_t n = dir.size();
  // score > optimality_tol is exactly "eligible": at lower d < -tol, at upper
  // d > tol; a NaN score compares false.
  if (bland) {  // first eligible index
    for (std::size_t j = 0; j < n; ++j) {
      if (dir[j] * d[j] > optimality_tol) return {j, -dir[j]};
    }
    return {n, 0.0};
  }
  // Dantzig: the lowest index with the strictly greatest score. Scores are
  // taken 8 at a time; a block's maximum (NaN-free, as every comparison
  // with NaN is false) does not depend on the running best, so the only
  // branch that reads the best is the rare "this block improves it" test,
  // and only then is the block rescanned in index order.
  std::size_t best_j = n;
  double best = optimality_tol;
  const auto improve = [&](std::size_t j, double score) {
    if (score > best) {
      best = score;
      best_j = j;
    }
  };
  std::size_t j0 = 0;
  for (; j0 + 8 <= n; j0 += 8) {
    double score[8];
    double lane_max[4] = {-kInfinity, -kInfinity, -kInfinity, -kInfinity};
    for (std::size_t l = 0; l < 8; ++l) {
      score[l] = dir[j0 + l] * d[j0 + l];
      double& m = lane_max[l % 4];
      m = score[l] > m ? score[l] : m;
    }
    const double m01 = lane_max[1] > lane_max[0] ? lane_max[1] : lane_max[0];
    const double m23 = lane_max[3] > lane_max[2] ? lane_max[3] : lane_max[2];
    if ((m23 > m01 ? m23 : m01) > best) {
      for (std::size_t l = 0; l < 8; ++l) improve(j0 + l, score[l]);
    }
  }
  for (std::size_t j = j0; j < n; ++j) improve(j, dir[j] * d[j]);
  return best_j == n ? EnteringChoice{n, 0.0}
                     : EnteringChoice{best_j, -dir[best_j]};
}

SimplexSolver::SimplexSolver(const Problem& problem,
                             std::span<const double> objective,
                             const PricingPanel* panel,
                             const SimplexOptions& options,
                             SolveScratch* scratch)
    : p_(problem),
      objective_(objective),
      opt_(options),
      cost_(scratch ? scratch->cost : own_.cost),
      lower_(scratch ? scratch->lower : own_.lower),
      upper_(scratch ? scratch->upper : own_.upper),
      slack_sign_(scratch ? scratch->slack_sign : own_.slack_sign),
      art_sign_(scratch ? scratch->art_sign : own_.art_sign),
      col_scratch_(scratch ? scratch->col : own_.col),
      status_(scratch ? scratch->status : own_.status),
      basis_(scratch ? scratch->basis : own_.basis),
      binv_(scratch ? scratch->binv : own_.binv),
      xb_(scratch ? scratch->xb : own_.xb),
      status_cand_(scratch ? scratch->status_cand : own_.status_cand),
      mark_(scratch ? scratch->mark : own_.mark),
      refactor_(scratch ? scratch->refactor : own_.refactor),
      y_(scratch ? scratch->y : own_.y),
      d_(scratch ? scratch->d : own_.d),
      dir_(scratch ? scratch->dir : own_.dir),
      alpha_(scratch ? scratch->alpha : own_.alpha),
      work_(scratch ? scratch->work : own_.work),
      work2_(scratch ? scratch->work2 : own_.work2) {
  n_struct_ = p_.num_vars();
  m_ = p_.num_rows();
  n_total_ = n_struct_ + 2 * m_;
  if (opt_.max_iterations <= 0) {
    opt_.max_iterations = 50 * static_cast<int>(m_ + n_total_) + 200;
  }

  lower_.assign(n_total_, 0.0);
  upper_.assign(n_total_, kInfinity);
  slack_sign_.assign(m_, 1.0);
  art_sign_.assign(m_, 1.0);

  for (std::size_t j = 0; j < n_struct_; ++j) {
    lower_[j] = p_.lower[j];
    upper_[j] = p_.upper[j];
  }
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t sj = n_struct_ + i;
    switch (p_.sense[i]) {
      case RowSense::kLessEqual:
        slack_sign_[i] = 1.0;
        lower_[sj] = 0.0;
        upper_[sj] = kInfinity;
        break;
      case RowSense::kGreaterEqual:
        slack_sign_[i] = -1.0;
        lower_[sj] = 0.0;
        upper_[sj] = kInfinity;
        break;
      case RowSense::kEqual:
        slack_sign_[i] = 1.0;
        lower_[sj] = 0.0;
        upper_[sj] = 0.0;  // fixed slack: row is an equality
        break;
    }
  }

  if (!opt_.use_dense_kernels) {
    if (panel == nullptr) {
      own_panel_ = PricingPanel(p_);
      panel = &own_panel_;
    }
    panel_ = panel;
  } else {
    // Materialize the structural columns with their zeros — the layout (and
    // memory traffic) of the pre-sparse implementation.
    dense_cols_.assign(n_struct_, std::vector<double>(m_, 0.0));
    for (std::size_t j = 0; j < n_struct_; ++j) {
      const SparseColumn& col = p_.columns[j];
      for (std::size_t k = 0; k < col.nnz(); ++k) {
        dense_cols_[j][static_cast<std::size_t>(col.rows[k])] = col.values[k];
      }
    }
  }
}

void SimplexSolver::full_column(std::size_t j, std::vector<double>& out) const {
  out.assign(m_, 0.0);
  if (j < n_struct_) {
    if (opt_.use_dense_kernels) {
      const auto& col = dense_cols_[j];
      std::copy(col.begin(), col.end(), out.begin());
    } else {
      const SparseColumn& col = p_.columns[j];
      for (std::size_t k = 0; k < col.nnz(); ++k) {
        out[static_cast<std::size_t>(col.rows[k])] = col.values[k];
      }
    }
  } else if (j < n_struct_ + m_) {
    out[j - n_struct_] = slack_sign_[j - n_struct_];
  } else {
    out[j - n_struct_ - m_] = art_sign_[j - n_struct_ - m_];
  }
}

void SimplexSolver::price(const std::vector<double>& y,
                          std::vector<double>& d) const {
  if (opt_.use_dense_kernels) {
    for (std::size_t j = 0; j < n_struct_; ++j) {
      const auto& col = dense_cols_[j];
      double acc = 0.0;
      for (std::size_t i = 0; i < m_; ++i) acc += col[i] * y[i];
      d[j] = acc;
    }
  } else {
    panel_->dot_all(y, d);
  }
  for (std::size_t j = 0; j < n_struct_; ++j) d[j] = cost_[j] - d[j];
  for (std::size_t i = 0; i < m_; ++i) {
    d[n_struct_ + i] = cost_[n_struct_ + i] - slack_sign_[i] * y[i];
    d[n_struct_ + m_ + i] = cost_[n_struct_ + m_ + i] - art_sign_[i] * y[i];
  }
}

void SimplexSolver::axpy_column(std::size_t j, double scale,
                                std::vector<double>& out) const {
  if (j < n_struct_) {
    if (opt_.use_dense_kernels) {
      const auto& col = dense_cols_[j];
      for (std::size_t i = 0; i < m_; ++i) out[i] += scale * col[i];
      return;
    }
    const SparseColumn& col = p_.columns[j];
    const std::size_t nnz = col.nnz();
    for (std::size_t k = 0; k < nnz; ++k) {
      out[static_cast<std::size_t>(col.rows[k])] += scale * col.values[k];
    }
  } else if (j < n_struct_ + m_) {
    out[j - n_struct_] += scale * slack_sign_[j - n_struct_];
  } else {
    out[j - n_struct_ - m_] += scale * art_sign_[j - n_struct_ - m_];
  }
}

void SimplexSolver::ftran(std::size_t j, std::vector<double>& alpha) {
  if (opt_.use_dense_kernels) {
    full_column(j, col_scratch_);
    for (std::size_t i = 0; i < m_; ++i) {
      double acc = 0.0;
      const auto brow = binv_.row(i);
      for (std::size_t r = 0; r < m_; ++r) acc += brow[r] * col_scratch_[r];
      alpha[i] = acc;
    }
    return;
  }
  if (j < n_struct_) {
    const SparseColumn& col = p_.columns[j];
    const std::size_t nnz = col.nnz();
    for (std::size_t i = 0; i < m_; ++i) {
      double acc = 0.0;
      const auto brow = binv_.row(i);
      for (std::size_t k = 0; k < nnz; ++k) {
        acc += brow[static_cast<std::size_t>(col.rows[k])] * col.values[k];
      }
      alpha[i] = acc;
    }
    ftran_skipped_ +=
        static_cast<long long>(m_) * static_cast<long long>(m_ - nnz);
  } else {
    const bool slack = j < n_struct_ + m_;
    const std::size_t r = slack ? j - n_struct_ : j - n_struct_ - m_;
    const double sign = slack ? slack_sign_[r] : art_sign_[r];
    for (std::size_t i = 0; i < m_; ++i) alpha[i] = binv_(i, r) * sign;
    ftran_skipped_ +=
        static_cast<long long>(m_) * static_cast<long long>(m_ - 1);
  }
}

double SimplexSolver::binv_row_dot_column(std::size_t i, std::size_t j) const {
  const auto brow = binv_.row(i);
  if (j >= n_struct_ || opt_.use_dense_kernels) {
    double acc = 0.0;
    if (j >= n_struct_) {
      const bool slack = j < n_struct_ + m_;
      const std::size_t r = slack ? j - n_struct_ : j - n_struct_ - m_;
      return brow[r] * (slack ? slack_sign_[r] : art_sign_[r]);
    }
    const auto& col = dense_cols_[j];
    for (std::size_t r = 0; r < m_; ++r) acc += brow[r] * col[r];
    return acc;
  }
  const SparseColumn& col = p_.columns[j];
  const std::size_t nnz = col.nnz();
  double acc = 0.0;
  for (std::size_t k = 0; k < nnz; ++k) {
    acc += brow[static_cast<std::size_t>(col.rows[k])] * col.values[k];
  }
  return acc;
}

void SimplexSolver::compute_duals(std::vector<double>& y) const {
  if (opt_.use_dense_kernels) {
    // Reference kernel: column-strided walk of B^-1, no zero-cost skip.
    for (std::size_t i = 0; i < m_; ++i) {
      double acc = 0.0;
      for (std::size_t r = 0; r < m_; ++r) {
        acc += cost_[basis_[r]] * binv_(r, i);
      }
      y[i] = acc;
    }
    return;
  }
  // Transposed accumulation: per y[i] the terms arrive in the same ascending
  // r order as the reference loop, minus exact-zero cB terms, so the result
  // is bit-identical — but B^-1 is now streamed row-major, and rows whose
  // basic variable has zero cost (all of Phase 1's non-artificials, every
  // slack-basic row of Phase 2) are skipped outright.
  std::fill(y.begin(), y.end(), 0.0);
  for (std::size_t r = 0; r < m_; ++r) {
    const double cr = cost_[basis_[r]];
    if (cr == 0.0) continue;
    const auto brow = binv_.row(r);
    for (std::size_t i = 0; i < m_; ++i) y[i] += cr * brow[i];
  }
}

double SimplexSolver::nonbasic_value(std::size_t j) const {
  return status_[j] == VarStatus::kAtUpper ? upper_[j] : lower_[j];
}

void SimplexSolver::setup_phase1() {
  status_.assign(n_total_, VarStatus::kAtLower);
  // Variables with infinite "lower preference" do not occur (finite lower
  // bounds are enforced by Problem::validate); start everything at lower.
  // Fixed slacks (equality rows) also sit at their lower (= upper = 0).

  // Residual of each row at the nonbasic point.
  std::vector<double>& residual = work_;
  residual.assign(p_.rhs.begin(), p_.rhs.end());
  for (std::size_t j = 0; j < n_struct_ + m_; ++j) {
    const double v = nonbasic_value(j);
    if (v == 0.0) continue;
    axpy_column(j, -v, residual);
  }

  basis_.resize(m_);
  xb_.assign(m_, 0.0);
  binv_.set_identity(m_);
  for (std::size_t i = 0; i < m_; ++i) {
    art_sign_[i] = residual[i] >= 0.0 ? 1.0 : -1.0;
    const std::size_t aj = n_struct_ + m_ + i;
    basis_[i] = aj;
    status_[aj] = VarStatus::kBasic;
    xb_[i] = std::abs(residual[i]);
    binv_(i, i) = art_sign_[i];  // inverse of diag(+-1) is itself
  }

  cost_.assign(n_total_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) cost_[n_struct_ + m_ + i] = 1.0;
}

bool SimplexSolver::try_warm_start(const Basis& warm) {
  if (warm.basic_vars.size() != m_ ||
      warm.status.size() != n_struct_ + m_) {
    return false;
  }
  std::vector<VarStatus>& status = status_cand_;
  status.assign(n_total_, VarStatus::kAtLower);
  std::vector<unsigned char>& is_basic = mark_;
  is_basic.assign(n_total_, 0);
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t bj = warm.basic_vars[i];
    if (bj >= n_struct_ + m_ || is_basic[bj]) return false;
    is_basic[bj] = 1;
  }
  for (std::size_t j = 0; j < n_struct_ + m_; ++j) {
    switch (warm.status[j]) {
      case 0:
        status[j] = VarStatus::kAtLower;
        break;
      case 1:
        if (!std::isfinite(upper_[j])) return false;
        status[j] = VarStatus::kAtUpper;
        break;
      case 2:
        if (!is_basic[j]) return false;
        status[j] = VarStatus::kBasic;
        break;
      default:
        return false;
    }
    if (is_basic[j] && status[j] != VarStatus::kBasic) return false;
  }

  std::swap(status_, status);
  basis_.assign(warm.basic_vars.begin(), warm.basic_vars.end());
  xb_.assign(m_, 0.0);
  binv_.set_identity(m_);
  if (!refactorize()) return false;
  // Cost changes keep the basis primal-feasible, but verify anyway (the
  // caller may hand us a basis from a different problem by mistake).
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t bj = basis_[i];
    const double scale = 1.0 + std::abs(xb_[i]);
    if (xb_[i] < lower_[bj] - opt_.feasibility_tol * scale) return false;
    if (std::isfinite(upper_[bj]) &&
        xb_[i] > upper_[bj] + opt_.feasibility_tol * scale) {
      return false;
    }
  }
  return true;
}

void SimplexSolver::save_basis(Basis& out) const {
  out.status.assign(n_struct_ + m_, 0);
  for (std::size_t j = 0; j < n_struct_ + m_; ++j) {
    switch (status_[j]) {
      case VarStatus::kAtLower:
        out.status[j] = 0;
        break;
      case VarStatus::kAtUpper:
        out.status[j] = 1;
        break;
      case VarStatus::kBasic:
        out.status[j] = 2;
        break;
    }
  }
  out.basic_vars.assign(basis_.begin(), basis_.end());
}

bool SimplexSolver::try_crash_start(bool structural_at_upper) {
  std::vector<VarStatus>& status = status_cand_;
  status.assign(n_total_, VarStatus::kAtLower);
  if (structural_at_upper) {
    for (std::size_t j = 0; j < n_struct_; ++j) {
      if (std::isfinite(upper_[j])) status[j] = VarStatus::kAtUpper;
    }
  }

  // Row activity at the candidate nonbasic point.
  std::vector<double>& activity = work_;
  activity.assign(m_, 0.0);
  for (std::size_t j = 0; j < n_struct_; ++j) {
    const double v =
        status[j] == VarStatus::kAtUpper ? upper_[j] : lower_[j];
    if (v == 0.0) continue;
    axpy_column(j, v, activity);
  }

  // Slack i value solving (Ax)_i + sign_i * s_i = b_i.
  std::vector<double>& slack = work2_;
  slack.assign(m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    const double s = slack_sign_[i] * (p_.rhs[i] - activity[i]);
    const std::size_t sj = n_struct_ + i;
    const double scale = 1.0 + std::abs(p_.rhs[i]);
    if (s < lower_[sj] - opt_.feasibility_tol * scale ||
        s > upper_[sj] + opt_.feasibility_tol * scale) {
      return false;
    }
    slack[i] = s;
  }

  std::swap(status_, status);
  basis_.resize(m_);
  xb_.resize(m_);
  binv_.set_identity(m_);
  for (std::size_t i = 0; i < m_; ++i) {
    basis_[i] = n_struct_ + i;
    status_[n_struct_ + i] = VarStatus::kBasic;
    xb_[i] = slack[i];
    binv_(i, i) = slack_sign_[i];  // inverse of diag(+-1) is itself
  }
  return true;
}

void SimplexSolver::enter_phase2() {
  cost_.assign(n_total_, 0.0);
  for (std::size_t j = 0; j < n_struct_; ++j) cost_[j] = objective_[j];
  // Artificials must never re-enter: pin them to zero.
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t aj = n_struct_ + m_ + i;
    lower_[aj] = 0.0;
    upper_[aj] = 0.0;
    if (status_[aj] != VarStatus::kBasic) status_[aj] = VarStatus::kAtLower;
  }
}

bool SimplexSolver::refactorize() {
  ++refactorizations_;
  DenseMatrix& b = refactor_;
  b.reset(m_, m_);
  if (opt_.use_dense_kernels) {
    std::vector<double>& col = col_scratch_;
    for (std::size_t i = 0; i < m_; ++i) {
      full_column(basis_[i], col);
      for (std::size_t r = 0; r < m_; ++r) b(r, i) = col[r];
    }
  } else {
    // Scatter only the nonzeros; b starts zero-filled, so the assembled
    // matrix is bit-identical to the dense copy above.
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t j = basis_[i];
      if (j < n_struct_) {
        const SparseColumn& col = p_.columns[j];
        for (std::size_t k = 0; k < col.nnz(); ++k) {
          b(static_cast<std::size_t>(col.rows[k]), i) = col.values[k];
        }
      } else if (j < n_struct_ + m_) {
        b(j - n_struct_, i) = slack_sign_[j - n_struct_];
      } else {
        b(j - n_struct_ - m_, i) = art_sign_[j - n_struct_ - m_];
      }
    }
  }
  if (!b.invert(opt_.pivot_tol)) return false;
  std::swap(binv_, b);
  recompute_basic_values();
  return true;
}

void SimplexSolver::recompute_basic_values() {
  // xB = B^-1 (b - N xN)
  std::vector<double>& rhs = work_;
  rhs.assign(p_.rhs.begin(), p_.rhs.end());
  for (std::size_t j = 0; j < n_total_; ++j) {
    if (status_[j] == VarStatus::kBasic) continue;
    const double v = nonbasic_value(j);
    if (v == 0.0) continue;
    axpy_column(j, -v, rhs);
  }
  for (std::size_t i = 0; i < m_; ++i) {
    double acc = 0.0;
    const auto brow = binv_.row(i);
    for (std::size_t r = 0; r < m_; ++r) acc += brow[r] * rhs[r];
    xb_[i] = acc;
  }
}

SolveStatus SimplexSolver::iterate(bool phase1) {
  std::vector<double>& y = y_;
  y.assign(m_, 0.0);
  std::vector<double>& d = d_;
  d.assign(n_total_, 0.0);
  // Statuses and bounds change between iterate() calls (start basis, phase
  // switch, artificial purge); inside it only the pivots below change them,
  // and each refreshes the directions of the columns it moved.
  dir_.resize(n_total_);
  for (std::size_t j = 0; j < n_total_; ++j) dir_[j] = direction(j);
  std::vector<double>& alpha = alpha_;
  alpha.assign(m_, 0.0);
  int phase_iterations = 0;

  for (;;) {
    if (iterations_ >= opt_.max_iterations) {
      return SolveStatus::kIterationLimit;
    }
    if (opt_.refactor_interval > 0 && iterations_ > 0 &&
        iterations_ % opt_.refactor_interval == 0) {
      if (!refactorize()) return SolveStatus::kNumericalFailure;
    }

    // Duals: y^T = cB^T B^-1.
    compute_duals(y);

    // Pricing. Entering direction sigma: +1 when increasing from lower,
    // -1 when decreasing from upper.
    price(y, d);
    if (opt_.use_dense_kernels) {
      // Reference path: directions straight from the statuses every pivot,
      // so the differential tests check the incremental updates below.
      for (std::size_t j = 0; j < n_total_; ++j) dir_[j] = direction(j);
    }
    const bool bland = phase_iterations >= opt_.bland_threshold;
    const EnteringChoice choice =
        choose_entering(dir_, d, opt_.optimality_tol, bland);
    const std::size_t entering = choice.index;
    const double entering_sigma = choice.sigma;
    if (entering == n_total_) {
      return SolveStatus::kOptimal;  // no improving direction
    }

    // FTRAN: alpha = B^-1 A_entering.
    ftran(entering, alpha);

    // Ratio test. Basic value change: xB_i -= sigma * alpha_i * t, t >= 0.
    double t_max = upper_[entering] - lower_[entering];  // bound flip
    std::size_t leaving_row = m_;   // m_ => bound flip
    bool leaving_to_upper = false;  // where the leaving basic variable lands
    for (std::size_t i = 0; i < m_; ++i) {
      const double rate = -entering_sigma * alpha[i];  // d(xB_i)/dt
      const std::size_t bj = basis_[i];
      if (rate < -opt_.pivot_tol) {
        // Basic variable decreases toward its lower bound.
        if (lower_[bj] == -kInfinity) continue;
        const double room = xb_[i] - lower_[bj];
        const double t = std::max(0.0, room) / (-rate);
        if (t < t_max - opt_.pivot_tol ||
            (bland && t <= t_max + opt_.pivot_tol && leaving_row != m_ &&
             bj < basis_[leaving_row])) {
          t_max = t;
          leaving_row = i;
          leaving_to_upper = false;
        }
      } else if (rate > opt_.pivot_tol) {
        // Basic variable increases toward its upper bound.
        if (upper_[bj] == kInfinity) continue;
        const double room = upper_[bj] - xb_[i];
        const double t = std::max(0.0, room) / rate;
        if (t < t_max - opt_.pivot_tol ||
            (bland && t <= t_max + opt_.pivot_tol && leaving_row != m_ &&
             bj < basis_[leaving_row])) {
          t_max = t;
          leaving_row = i;
          leaving_to_upper = true;
        }
      }
    }

    if (t_max == kInfinity || !std::isfinite(t_max)) {
      return phase1 ? SolveStatus::kNumericalFailure : SolveStatus::kUnbounded;
    }

    ++iterations_;
    ++phase_iterations;

    if (leaving_row == m_) {
      // Bound flip: the entering variable crosses to its opposite bound.
      for (std::size_t i = 0; i < m_; ++i) {
        xb_[i] -= entering_sigma * alpha[i] * t_max;
      }
      status_[entering] = entering_sigma > 0.0 ? VarStatus::kAtUpper
                                               : VarStatus::kAtLower;
      dir_[entering] = direction(entering);
      continue;
    }

    const double pivot = alpha[leaving_row];
    if (std::abs(pivot) < opt_.pivot_tol) {
      // Retry from a fresh factorization once; otherwise give up.
      if (!refactorize()) return SolveStatus::kNumericalFailure;
      if (numerical_failure_) return SolveStatus::kNumericalFailure;
      numerical_failure_ = true;
      continue;
    }
    numerical_failure_ = false;

    // Update basic values.
    for (std::size_t i = 0; i < m_; ++i) {
      if (i == leaving_row) continue;
      xb_[i] -= entering_sigma * alpha[i] * t_max;
    }
    const std::size_t leaving_var = basis_[leaving_row];
    status_[leaving_var] =
        leaving_to_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
    xb_[leaving_row] = nonbasic_value(entering) + entering_sigma * t_max;
    basis_[leaving_row] = entering;
    status_[entering] = VarStatus::kBasic;
    dir_[leaving_var] = direction(leaving_var);
    dir_[entering] = direction(entering);

    // Product-form update of B^-1. A rank-1 update row whose pivot-column
    // entry is exactly zero is skipped — the update would add 0 * row, which
    // is the identity, so skipping it is IEEE-exact.
    const double inv_pivot = 1.0 / pivot;
    for (std::size_t c = 0; c < m_; ++c) binv_(leaving_row, c) *= inv_pivot;
    for (std::size_t i = 0; i < m_; ++i) {
      if (i == leaving_row) continue;
      const double factor = alpha[i];
      if (factor == 0.0) continue;
      for (std::size_t c = 0; c < m_; ++c) {
        binv_(i, c) -= factor * binv_(leaving_row, c);
      }
    }
  }
}

void SimplexSolver::purge_artificials() {
  std::vector<double>& alpha = alpha_;
  alpha.assign(m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    if (basis_[i] < n_struct_ + m_) continue;  // not artificial
    // Degenerate pivot: replace the artificial with any non-artificial column
    // that has a nonzero entry in this row of the simplex tableau.
    bool replaced = false;
    for (std::size_t j = 0; j < n_struct_ + m_ && !replaced; ++j) {
      if (status_[j] == VarStatus::kBasic) continue;
      const double entry = binv_row_dot_column(i, j);
      if (std::abs(entry) < 1e-7) continue;
      // t = 0 pivot (the artificial is at value 0, so nothing moves).
      const std::size_t art = basis_[i];
      status_[art] = VarStatus::kAtLower;
      basis_[i] = j;
      status_[j] = VarStatus::kBasic;
      const double inv_pivot = 1.0 / entry;
      // alpha = B^-1 A_j for the binv update.
      ftran(j, alpha);
      for (std::size_t c = 0; c < m_; ++c) binv_(i, c) *= inv_pivot;
      for (std::size_t r = 0; r < m_; ++r) {
        if (r == i) continue;
        const double factor = alpha[r];
        if (factor == 0.0) continue;
        for (std::size_t c = 0; c < m_; ++c) {
          binv_(r, c) -= factor * binv_(i, c);
        }
      }
      recompute_basic_values();
      replaced = true;
    }
    // If no replacement exists the row is redundant; the artificial stays
    // basic, pinned at zero by its [0,0] bounds in phase 2.
  }
}

void SimplexSolver::export_stats(Solution& sol) const {
  sol.iterations = iterations_;
  sol.refactorizations = refactorizations_;
  sol.warm_start_used = warm_start_used_;
  sol.warm_start_rejected = warm_start_rejected_;
  sol.ftran_nnz_skipped = ftran_skipped_;
}

Solution SimplexSolver::run(Basis* warm) {
  Solution sol;

  const bool warm_requested = warm != nullptr && !warm->empty();
  warm_start_used_ = warm_requested && try_warm_start(*warm);
  warm_start_rejected_ = warm_requested && !warm_start_used_;
  bool started = warm_start_used_;
  if (!started) {
    started = try_crash_start(/*structural_at_upper=*/false) ||
              try_crash_start(/*structural_at_upper=*/true);
  }
  if (!started) {
    setup_phase1();
    SolveStatus phase1_status = iterate(/*phase1=*/true);
    if (phase1_status == SolveStatus::kIterationLimit ||
        phase1_status == SolveStatus::kNumericalFailure) {
      sol.status = phase1_status;
      export_stats(sol);
      return sol;
    }
    // Phase-1 objective = sum of artificial values.
    double infeas = 0.0;
    for (std::size_t i = 0; i < m_; ++i) {
      if (basis_[i] >= n_struct_ + m_) infeas += std::abs(xb_[i]);
    }
    if (infeas > opt_.feasibility_tol * (1.0 + std::abs(infeas))) {
      sol.status = SolveStatus::kInfeasible;
      export_stats(sol);
      return sol;
    }
    purge_artificials();
  }

  enter_phase2();
  SolveStatus st;
  recompute_basic_values();
  st = iterate(/*phase1=*/false);
  sol.status = st;
  export_stats(sol);
  if (st != SolveStatus::kOptimal) return sol;

  // Extract the primal point.
  sol.x.assign(n_struct_, 0.0);
  for (std::size_t j = 0; j < n_struct_; ++j) {
    if (status_[j] != VarStatus::kBasic) sol.x[j] = nonbasic_value(j);
  }
  for (std::size_t i = 0; i < m_; ++i) {
    if (basis_[i] < n_struct_) {
      // Clamp tiny bound violations from accumulated rounding.
      const std::size_t j = basis_[i];
      sol.x[j] = std::clamp(xb_[i], lower_[j],
                            std::isfinite(upper_[j]) ? upper_[j] : xb_[i]);
    }
  }

  sol.objective = 0.0;
  for (std::size_t j = 0; j < n_struct_; ++j) {
    sol.objective += objective_[j] * sol.x[j];
  }

  // Duals and reduced costs.
  sol.duals.assign(m_, 0.0);
  compute_duals(sol.duals);
  // Phase 2 priced with cost_[j] == objective_[j] for every structural j.
  d_.assign(n_total_, 0.0);
  price(sol.duals, d_);
  sol.reduced_costs.assign(d_.begin(),
                           d_.begin() + static_cast<std::ptrdiff_t>(n_struct_));
  // Basis contains no artificials here unless a redundant row pinned one;
  // such a basis still warm-starts correctly (the artificial is fixed at 0),
  // but we only export clean bases to keep the contract simple.
  if (warm != nullptr) {
    const bool clean = std::all_of(basis_.begin(), basis_.end(),
                                   [&](std::size_t b) { return b < n_struct_ + m_; });
    if (clean) {
      save_basis(*warm);
      sol.basis_saved = true;
    }
  }
  return sol;
}

}  // namespace detail
}  // namespace carbon::lp
