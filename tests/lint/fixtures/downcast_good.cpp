// maopt-lint-fixture-path: src/core/fixture.cpp
// GOOD: the result says how it was produced, whatever wraps the service.
// (A dynamic_cast mentioned in a comment is not a finding.)
#include "circuits/sizing_problem.hpp"

namespace maopt::core {

bool served_from_cache(const ckt::SizingProblem& problem, const ckt::Vec& x) {
  return problem.evaluate(x).cache == ckt::CacheOutcome::Hit;
}

}  // namespace maopt::core
