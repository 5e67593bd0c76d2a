// ServiceStack — the decorator chain one evaluation backend needs:
//
//   problem  <-  [ResilientEvaluator]  <-  EvalService
//
//   eval::EvalServiceConfig service_config;
//   service_config.num_threads = 8;
//   service_config.cache_dir = "cache";
//   serve::ServiceStack stack(problem, service_config, ckt::ResilientConfig{});
//   optimizer.run(stack.service(), ...);
//
// Each layer validates its own config in its constructor (std::invalid_argument
// naming the offending field), so a bad stack fails before any thread or
// journal is created. Sweep policies are not part of the stack: robust and
// yield workloads pass their ckt::SweepPolicyConfig to the sweep problem
// that reads it.
#pragma once

#include <memory>
#include <optional>

#include "circuits/resilient_problem.hpp"
#include "eval/eval_service.hpp"

namespace maopt::serve {

/// The wrapped problem stays caller-owned and must outlive the stack; the
/// optional resilience layer and the service are owned here. service() is
/// the SizingProblem optimizers should run against.
class ServiceStack {
 public:
  /// Without `resilient`, the service wraps the problem bare.
  ServiceStack(const ckt::SizingProblem& problem, const eval::EvalServiceConfig& service,
               std::optional<ckt::ResilientConfig> resilient = std::nullopt);

  ServiceStack(const ServiceStack&) = delete;
  ServiceStack& operator=(const ServiceStack&) = delete;

  eval::EvalService& service() { return *service_; }
  const eval::EvalService& service() const { return *service_; }

  /// The resilience layer, when the stack has one (else null).
  const ckt::ResilientEvaluator* resilient() const { return resilient_.get(); }

 private:
  std::unique_ptr<ckt::ResilientEvaluator> resilient_;
  std::unique_ptr<eval::EvalService> service_;
};

}  // namespace maopt::serve
