#include "serve/service_stack.hpp"

namespace maopt::serve {

ServiceStack::ServiceStack(const ckt::SizingProblem& problem,
                           const eval::EvalServiceConfig& service,
                           std::optional<ckt::ResilientConfig> resilient) {
  const ckt::SizingProblem* inner = &problem;
  if (resilient) {
    resilient_ = std::make_unique<ckt::ResilientEvaluator>(problem, *resilient);
    inner = resilient_.get();
  }
  service_ = std::make_unique<eval::EvalService>(*inner, service);
}

}  // namespace maopt::serve
