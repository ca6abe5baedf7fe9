// A "problem family" is an LP whose constraint matrix, senses, rhs and bounds
// are frozen for its lifetime while the objective vector is re-bound per
// solve. Within a CARBON/COBRA run every LL relaxation shares one constraint
// matrix — only the UL pricing moves the costs — so validating, copying and
// re-allocating the whole lp::Problem on every evaluation is pure waste.
// ProblemFamily validates once at construction, builds the pricing panel
// once, and exposes a cost-only rebind(); lp::solve(family, ...) then skips
// per-solve validation and panel construction entirely.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "carbon/lp/pricing_panel.hpp"
#include "carbon/lp/problem.hpp"

namespace carbon::lp {

class ProblemFamily {
 public:
  /// Takes ownership of `problem` and validates it once, throwing
  /// std::invalid_argument on a malformed problem exactly like lp::solve.
  /// Copying a family does NOT re-validate (the invariant is preserved).
  explicit ProblemFamily(Problem problem);

  /// Copies share the frozen constraint data and the pricing panel (one
  /// reference-counted pointer), copy only the objective vector, and start
  /// their own rebind count — each EvalContext clones the shared prototype,
  /// rebinds its own costs and counts locally.
  ProblemFamily(const ProblemFamily& other)
      : frozen_(other.frozen_), objective_(other.objective_) {}
  ProblemFamily& operator=(const ProblemFamily& other) {
    frozen_ = other.frozen_;
    objective_ = other.objective_;
    rebinds_ = 0;
    return *this;
  }
  ProblemFamily(ProblemFamily&&) = default;
  ProblemFamily& operator=(ProblemFamily&&) = default;

  /// Cost-only rebind: copies `c` over the first c.size() objective
  /// coefficients; trailing coefficients keep their current values (the
  /// pricing-prefix convention of the LL relaxation, where only owned
  /// services are re-priced). Throws std::invalid_argument when `c` is
  /// longer than the objective. Constraint data is untouched, so any basis
  /// saved from a previous solve of this family stays primal-feasible.
  void rebind(std::span<const double> c);

  /// The current objective (construction costs overwritten by rebinds).
  [[nodiscard]] std::span<const double> objective() const noexcept {
    return objective_;
  }
  /// The frozen constraint data shared by every copy. Its `objective`
  /// member keeps the costs the family was constructed with; the costs a
  /// solve uses are objective().
  [[nodiscard]] const Problem& constraints() const noexcept {
    return frozen_->problem;
  }
  /// The pricing panel of constraints(), built once and shared by copies.
  [[nodiscard]] const PricingPanel& panel() const noexcept {
    return frozen_->panel;
  }

  /// Number of rebind() calls since this object was constructed or copied
  /// (feeds the lp/family_rebinds backend counter).
  [[nodiscard]] long long rebinds() const noexcept { return rebinds_; }

 private:
  struct Frozen {
    Problem problem;
    PricingPanel panel;
  };

  std::shared_ptr<const Frozen> frozen_;
  std::vector<double> objective_;
  long long rebinds_ = 0;
};

}  // namespace carbon::lp
