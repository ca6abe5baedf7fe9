#include "carbon/lp/problem_family.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace carbon::lp {

ProblemFamily::ProblemFamily(Problem problem) {
  const std::string err = problem.validate();
  if (!err.empty()) {
    throw std::invalid_argument("lp::ProblemFamily: malformed problem: " +
                                err);
  }
  objective_ = problem.objective;
  PricingPanel panel(problem);
  frozen_ = std::make_shared<const Frozen>(
      Frozen{std::move(problem), std::move(panel)});
}

void ProblemFamily::rebind(std::span<const double> c) {
  if (c.size() > objective_.size()) {
    throw std::invalid_argument(
        "lp::ProblemFamily::rebind: cost vector longer than objective");
  }
  std::copy(c.begin(), c.end(), objective_.begin());
  ++rebinds_;
}

}  // namespace carbon::lp
