// maopt-lint-fixture-path: src/circuits/fixture.cpp
// GOOD: the variation is an argument of the call that simulates under it.
// (A set_process_variation() mentioned in a comment is not a finding.)
#include "circuits/sizing_problem.hpp"

namespace maopt::ckt {

EvalResult slow_corner(const SizingProblem& problem, const Vec& x, const ProcessVariation& ss) {
  return problem.evaluate_at(x, ss);
}

EvalResult slow_corner_again(const SizingProblem& problem, const Vec& x,
                             const ProcessVariation& ss) {
  return problem.make_session_at(ss)->evaluate(x);
}

}  // namespace maopt::ckt
