#include "serve/service_stack.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuits/analytic_problems.hpp"
#include "circuits/variation_sweep.hpp"

namespace maopt::serve {
namespace {

/// `construct` must throw std::invalid_argument whose message names the
/// offending field: each layer validates the config it reads.
void expect_rejects(const std::function<void()>& construct, const std::string& field) {
  try {
    construct();
    FAIL() << "expected the constructor to reject " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << "message does not name the field: " << e.what();
  }
}

TEST(ServiceStack, LayersRejectEachBadKnobByName) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ckt::ConstrainedQuadratic problem(4);

  // EvalService (its ResultCache checks the capacity).
  const auto service_rejects = [&](const eval::EvalServiceConfig& config,
                                   const std::string& field) {
    expect_rejects([&] { eval::EvalService service(problem, config); }, field);
  };
  eval::EvalServiceConfig service;
  service.memory_capacity = 0;
  service_rejects(service, "memory_capacity");

  // ResilientEvaluator.
  const auto resilient_rejects = [&](const ckt::ResilientConfig& config,
                                     const std::string& field) {
    expect_rejects([&] { ckt::ResilientEvaluator resilient(problem, config); }, field);
  };
  ckt::ResilientConfig resilient;
  resilient.deadline_seconds = -0.5;
  resilient_rejects(resilient, "deadline_seconds");
  resilient = {};
  resilient.max_retries = -1;
  resilient_rejects(resilient, "max_retries");
  resilient = {};
  resilient.retry_jitter_frac = nan;
  resilient_rejects(resilient, "retry_jitter_frac");
  resilient = {};
  resilient.max_metric_magnitude = 0.0;
  resilient_rejects(resilient, "max_metric_magnitude");

  // VariationSweepProblem (the sweep policy's only reader).
  const std::vector<ckt::SweepVariant> nominal(2);
  const auto sweep_rejects = [&](const ckt::SweepPolicyConfig& policy, const std::string& field) {
    expect_rejects([&] { ckt::VariationSweepProblem sweep(problem, nominal, policy, "corners"); },
                   field);
  };
  ckt::SweepPolicyConfig sweep;
  sweep.k_sigma = nan;
  sweep_rejects(sweep, "k_sigma");
  sweep = {};
  sweep.yield_target = 0.0;
  sweep_rejects(sweep, "yield_target");
  sweep.yield_target = 1.5;
  sweep_rejects(sweep, "yield_target");
  sweep = {};
  sweep.min_ok_fraction = -0.1;
  sweep_rejects(sweep, "min_ok_fraction");
}

TEST(ServiceStack, BareStackHasNoResilienceLayer) {
  ckt::ConstrainedQuadratic problem(4);
  eval::EvalServiceConfig config;
  config.num_threads = 1;
  const ServiceStack stack(problem, config);
  EXPECT_EQ(stack.resilient(), nullptr);

  // The service answers as the problem would — same metrics, counted once.
  const linalg::Vec x = {0.3, 0.3, 0.3, 0.3};
  const ckt::EvalResult direct = problem.evaluate(x);
  const ckt::EvalResult via = stack.service().evaluate(x);
  ASSERT_EQ(via.metrics.size(), direct.metrics.size());
  for (std::size_t i = 0; i < direct.metrics.size(); ++i)
    EXPECT_EQ(via.metrics[i], direct.metrics[i]);
  EXPECT_EQ(stack.service().counters().requested, 1u);
}

TEST(ServiceStack, ResilientConfigInsertsLayer) {
  ckt::ConstrainedQuadratic problem(4);
  eval::EvalServiceConfig config;
  config.num_threads = 1;
  ckt::ResilientConfig resilient;
  resilient.max_retries = 1;
  const ServiceStack stack(problem, config, resilient);
  ASSERT_NE(stack.resilient(), nullptr);
  EXPECT_EQ(stack.resilient()->config().max_retries, 1);

  // Second identical request is a cache hit, resilient or not.
  const linalg::Vec x = {0.5, 0.5, 0.5, 0.5};
  (void)stack.service().evaluate(x);
  (void)stack.service().evaluate(x);
  const eval::EvalCounters counters = stack.service().counters();
  EXPECT_EQ(counters.requested, 2u);
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.simulations, 1u);
}

TEST(ServiceStack, ConstructorRejectsInvalidConfig) {
  ckt::ConstrainedQuadratic problem(4);
  eval::EvalServiceConfig config;
  config.memory_capacity = 0;
  EXPECT_THROW(ServiceStack(problem, config), std::invalid_argument);

  ckt::ResilientConfig resilient;
  resilient.deadline_seconds = std::numeric_limits<double>::infinity();
  EXPECT_THROW(ServiceStack(problem, eval::EvalServiceConfig{}, resilient),
               std::invalid_argument);
}

}  // namespace
}  // namespace maopt::serve
