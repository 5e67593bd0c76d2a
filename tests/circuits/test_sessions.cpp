// Session-identity regression: a persistent EvalSession must return results
// identical to the owning problem's evaluate() — for every circuit, across
// repeated designs, regardless of what the previous design left behind in
// the reused testbench (swept DC levels, transient waveforms, AC magnitudes).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "circuits/analytic_problems.hpp"
#include "circuits/folded_cascode_ota.hpp"
#include "circuits/ldo_regulator.hpp"
#include "circuits/resilient_problem.hpp"
#include "circuits/sizing_problem.hpp"
#include "circuits/three_stage_tia.hpp"
#include "circuits/two_stage_ota.hpp"
#include "common/rng.hpp"

namespace maopt::ckt {
namespace {

void expect_identical(const EvalResult& got, const EvalResult& want, const char* context) {
  EXPECT_EQ(got.simulation_ok, want.simulation_ok) << context;
  ASSERT_EQ(got.metrics.size(), want.metrics.size()) << context;
  for (std::size_t i = 0; i < want.metrics.size(); ++i)
    EXPECT_EQ(got.metrics[i], want.metrics[i]) << context << " metric " << i;
}

/// Sessions reuse benches across designs; evaluate() builds fresh ones. The
/// A, B, A' sequence (with A' == A) catches any state the second design
/// leaks into the third evaluation. An enabled `pv` checks make_session_at
/// against evaluate_at instead.
void check_session_identity(const SizingProblem& problem, std::uint64_t seed,
                            const ProcessVariation& pv = {}) {
  Rng rng(seed);
  const Vec a = problem.random_design(rng);
  const Vec b = problem.random_design(rng);

  const EvalResult ref_a = pv.enabled() ? problem.evaluate_at(a, pv) : problem.evaluate(a);
  const EvalResult ref_b = pv.enabled() ? problem.evaluate_at(b, pv) : problem.evaluate(b);

  const auto session = pv.enabled() ? problem.make_session_at(pv) : problem.make_session();
  ASSERT_NE(session, nullptr);
  expect_identical(session->evaluate(a), ref_a, "first design");
  expect_identical(session->evaluate(b), ref_b, "second design (reused bench)");
  expect_identical(session->evaluate(a), ref_a, "first design again (after reuse)");
}

TEST(EvalSessionTest, TwoStageOtaSessionMatchesEvaluate) {
  check_session_identity(TwoStageOta{}, 41);
}

TEST(EvalSessionTest, FoldedCascodeSessionMatchesEvaluate) {
  check_session_identity(FoldedCascodeOta{}, 42);
}

TEST(EvalSessionTest, ThreeStageTiaSessionMatchesEvaluate) {
  check_session_identity(ThreeStageTia{}, 43);
}

TEST(EvalSessionTest, LdoRegulatorSessionMatchesEvaluate) {
  check_session_identity(LdoRegulator{}, 44);
}

TEST(EvalSessionTest, SessionSnapshotsProcessVariation) {
  ProcessVariation pv;
  pv.sigma_vth = 5e-3;
  pv.seed = 7;
  check_session_identity(TwoStageOta{}, 45, pv);
}

TEST(EvalSessionTest, DefaultSessionForwardsForAnalyticProblems) {
  ConstrainedQuadratic quad(3);
  Rng rng(1);
  const Vec x = quad.random_design(rng);
  const auto session = quad.make_session();
  ASSERT_NE(session, nullptr);
  expect_identical(session->evaluate(x), quad.evaluate(x), "analytic");
}

TEST(EvalSessionTest, ResilientInlineSessionMatchesEvaluate) {
  TwoStageOta ota;
  ResilientConfig config;
  config.deadline_seconds = 0.0;  // inline attempts: inner session is reused
  ResilientEvaluator resilient(ota, config);
  check_session_identity(resilient, 46);
}

TEST(EvalSessionTest, ResilientWithDeadlineFallsBackToForwarding) {
  TwoStageOta ota;
  ResilientConfig config;
  config.deadline_seconds = 30.0;  // detached-thread attempts: no reuse
  ResilientEvaluator resilient(ota, config);
  Rng rng(47);
  const Vec x = resilient.random_design(rng);
  const auto session = resilient.make_session();
  ASSERT_NE(session, nullptr);
  expect_identical(session->evaluate(x), resilient.evaluate(x), "deadline fallback");
}

}  // namespace
}  // namespace maopt::ckt
