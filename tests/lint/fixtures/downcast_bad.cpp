// maopt-lint-fixture-path: src/core/fixture.cpp
// BAD: probing for a concrete evaluation layer instead of reading the result.
#include "eval/eval_service.hpp"

namespace maopt::core {

bool served_from_cache(const ckt::SizingProblem& problem) {
  const auto* service = dynamic_cast<const eval::EvalService*>(&problem);  // flagged
  return service != nullptr && service->counters().hits > 0;
}

}  // namespace maopt::core
