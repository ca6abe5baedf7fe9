// ParallelEvaluator names the same class as bcpop::Evaluator; callers that
// build a multi-participant evaluator may spell it either way.
#pragma once

#include "carbon/bcpop/evaluator.hpp"

namespace carbon::bcpop {

using ParallelEvaluator = Evaluator;

}  // namespace carbon::bcpop
