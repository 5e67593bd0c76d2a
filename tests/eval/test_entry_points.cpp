// Entry-point agreement: a problem holds no variation state, so evaluate(x),
// evaluate_at(x, {}), make_session() and make_session_at({}) are four names
// for one nominal simulation, and evaluate_at(x, pv) is make_session_at(pv)
// evaluated once. Every layer of the evaluation stack must agree on that bit
// for bit, with the bare circuit and with each other.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "../support/constrained_rosenbrock.hpp"
#include "circuits/analytic_problems.hpp"
#include "circuits/folded_cascode_ota.hpp"
#include "circuits/ldo_regulator.hpp"
#include "circuits/process_variation.hpp"
#include "circuits/resilient_problem.hpp"
#include "circuits/robust_problem.hpp"
#include "circuits/three_stage_tia.hpp"
#include "circuits/two_stage_ota.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "deck/deck_problem.hpp"
#include "eval/eval_service.hpp"

namespace maopt {
namespace {

using ckt::EvalResult;
using ckt::ProcessVariation;
using ckt::SizingProblem;
using linalg::Vec;

const std::string kDeck = std::string(MAOPT_DECKS_DIR) + "/five_transistor_ota.cir";

void expect_bitwise(const EvalResult& got, const EvalResult& want, const std::string& context) {
  EXPECT_EQ(got.simulation_ok, want.simulation_ok) << context;
  ASSERT_EQ(got.metrics.size(), want.metrics.size()) << context;
  for (std::size_t i = 0; i < want.metrics.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.metrics[i]),
              std::bit_cast<std::uint64_t>(want.metrics[i]))
        << context << " metric " << i << ": " << got.metrics[i] << " vs " << want.metrics[i];
}

ProcessVariation ss() { return ckt::corner_variation(ckt::ProcessCorner::SS); }

/// Checks the four nominal entry points of `p` against `nominal`, and both
/// SS entry points against `slow`: the bare circuit's own results, so every
/// decorator is held to what the circuit simulates.
void check_agreement(const SizingProblem& p, const Vec& x, const EvalResult& nominal,
                     const EvalResult& slow, const std::string& name) {
  expect_bitwise(p.evaluate(x), nominal, name + " evaluate(x)");
  expect_bitwise(p.evaluate_at(x, {}), nominal, name + " evaluate_at(x, {})");
  expect_bitwise(p.make_session()->evaluate(x), nominal, name + " make_session()");
  expect_bitwise(p.make_session_at({})->evaluate(x), nominal, name + " make_session_at({})");
  expect_bitwise(p.evaluate_at(x, ss()), slow, name + " evaluate_at(x, SS)");
  expect_bitwise(p.make_session_at(ss())->evaluate(x), slow, name + " make_session_at(SS)");
}

struct EntryPointAgreement : ::testing::Test {
  ckt::TwoStageOta ota;
  Vec x = ota.clip({1.0, 1.0, 1.0, 0.5, 0.5, 20, 10, 5, 40, 20, 2.0, 500, 1000, 4, 4, 4});
  EvalResult nominal = ota.evaluate(x);
  EvalResult slow = ota.evaluate_at(x, ss());
};

TEST_F(EntryPointAgreement, CircuitEntryPointsAreOneSimulation) {
  ASSERT_TRUE(nominal.simulation_ok);
  ASSERT_TRUE(slow.simulation_ok);
  // SS moves the operating point, so agreement below is not vacuous.
  EXPECT_NE(slow.metrics[ckt::TwoStageOta::kPowerMw], nominal.metrics[ckt::TwoStageOta::kPowerMw]);
  check_agreement(ota, x, nominal, slow, "TwoStageOta");
}

TEST_F(EntryPointAgreement, DeckEntryPointsAreOneSimulation) {
  const deck::DeckProblem deck = deck::DeckProblem::from_files(kDeck);
  Rng rng(5);
  const Vec xd = deck.random_design(rng);
  const EvalResult deck_nominal = deck.evaluate(xd);
  const EvalResult deck_slow = deck.evaluate_at(xd, ss());
  ASSERT_TRUE(deck_nominal.simulation_ok);
  EXPECT_NE(deck_slow.metrics, deck_nominal.metrics);
  check_agreement(deck, xd, deck_nominal, deck_slow, "DeckProblem");
}

TEST_F(EntryPointAgreement, ResilientInlineMatchesTheCircuit) {
  ckt::ResilientConfig config;
  config.deadline_seconds = 0.0;
  const ckt::ResilientEvaluator resilient(ota, config);
  check_agreement(resilient, x, nominal, slow, "ResilientEvaluator(deadline 0)");
}

TEST_F(EntryPointAgreement, ResilientWithDeadlineMatchesTheCircuit) {
  ckt::ResilientConfig config;
  config.deadline_seconds = 60.0;
  const ckt::ResilientEvaluator resilient(ota, config);
  check_agreement(resilient, x, nominal, slow, "ResilientEvaluator(deadline 60 s)");
}

TEST_F(EntryPointAgreement, FaultInjectorWithoutFaultsMatchesTheCircuit) {
  const ckt::FaultInjectingProblem faults(ota, ckt::FaultInjectionConfig{});
  check_agreement(faults, x, nominal, slow, "FaultInjectingProblem(rates 0)");
  EXPECT_EQ(faults.injected(), 0u);
}

TEST_F(EntryPointAgreement, ServiceMatchesTheCircuitAndKeysVariantsApart) {
  const eval::EvalService service(ota);
  // A nominal simulation is cached under the nominal key only: the SS
  // request after it must simulate, and return SS metrics.
  const EvalResult first = service.evaluate(x);
  EXPECT_EQ(first.cache, ckt::CacheOutcome::Miss);
  expect_bitwise(first, nominal, "EvalService first evaluate(x)");
  const EvalResult varied = service.evaluate_at(x, ss());
  EXPECT_EQ(varied.cache, ckt::CacheOutcome::Miss);
  expect_bitwise(varied, slow, "EvalService first evaluate_at(x, SS)");
  EXPECT_EQ(service.evaluate_at(x, {}).cache, ckt::CacheOutcome::Hit);
  check_agreement(service, x, nominal, slow, "EvalService");
  EXPECT_EQ(service.counters().simulations, 2u);
}

TEST_F(EntryPointAgreement, SetProcessVariationThrowsOnEveryProblem) {
  const ProcessVariation pv = ss();
  const auto expect_refused = [&pv](SizingProblem& p, const std::string& name) {
    EXPECT_THROW(p.set_process_variation(pv), ContractViolation) << name;
    EXPECT_THROW(p.set_process_variation(ProcessVariation{}), ContractViolation) << name;
  };
  ckt::ThreeStageTia tia;
  ckt::FoldedCascodeOta folded;
  ckt::LdoRegulator ldo;
  deck::DeckProblem deck = deck::DeckProblem::from_files(kDeck);
  ckt::ConstrainedQuadratic quad(3);
  ckt::testing::ConstrainedRosenbrock rosenbrock(3);
  ckt::ResilientEvaluator resilient(ota);
  ckt::FaultInjectingProblem faults(ota, ckt::FaultInjectionConfig{});
  eval::EvalService service(ota);
  ckt::RobustProblem robust(ota);
  ckt::YieldConfig yield_config;
  yield_config.mismatch.instances = 2;
  ckt::YieldProblem yield(ota, yield_config);

  expect_refused(ota, "TwoStageOta");
  expect_refused(tia, "ThreeStageTia");
  expect_refused(folded, "FoldedCascodeOta");
  expect_refused(ldo, "LdoRegulator");
  expect_refused(deck, "DeckProblem");
  expect_refused(quad, "ConstrainedQuadratic");
  expect_refused(rosenbrock, "ConstrainedRosenbrock");
  expect_refused(resilient, "ResilientEvaluator");
  expect_refused(faults, "FaultInjectingProblem");
  expect_refused(service, "EvalService");
  expect_refused(robust, "RobustProblem");
  expect_refused(yield, "YieldProblem");
}

}  // namespace
}  // namespace maopt
