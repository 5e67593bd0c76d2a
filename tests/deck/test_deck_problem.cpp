#include "deck/deck_problem.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "spice/ac_analysis.hpp"
#include "spice/dc_analysis.hpp"
#include "spice/devices.hpp"
#include "spice/measure.hpp"
#include "spice/mosfet.hpp"
#include "spice/netlist.hpp"

namespace maopt::deck {
namespace {

using ckt::Vec;

// A resistive divider with a designable bottom leg: V(out) = R2 / (R1 + R2).
const char* kDividerDeck = R"(
.param R1VAL=1k
.param R2VAL=3k
V1 in 0 DC 1
R1 in out {R1VAL}
R2 out 0 {R2VAL}
.op
.measure op vout v v(out)
)";

const char* kDividerSpec = R"(
name divider
param R2VAL lower=100 upper=10k
minimize {1 - VOUT} name=drop
constraint VOUT >= 0.5 unit=V
)";

// MOSFET common-source amplifier: exercises models, AC measures and lets.
const char* kCsDeck = R"(
.model n180 NMOS
.param WCS=20u
.param RLOAD=5k
VDD vdd 0 1.8
VIN in 0 DC 0.7 AC 1
RL vdd out {RLOAD}
M1 out in 0 0 n180 W={WCS} L=1u
CL out 0 200f
.op
.ac dec 10 1 1g
.measure op power supplypower VDD
.measure op vout v v(out)
.measure ac gain dcgain v(out)
.measure ac bw bw v(out) default=0
)";

const char* kCsSpec = R"(
name cs_amp_test
param WCS   lower=2u  upper=100u
param RLOAD lower=500 upper=20k
let power_mw {POWER*1e3}
minimize power_mw unit=mW
constraint GAIN >= 12   unit=dB
constraint BW   >= 1meg unit=Hz
constraint VOUT >= 0.5  unit=V
)";

TEST(DeckProblem, CompilesBoundsNamesAndSpec) {
  const DeckProblem p = DeckProblem::from_text(kCsDeck, kCsSpec);
  EXPECT_EQ(p.spec().name, "cs_amp_test");
  EXPECT_EQ(p.spec().target_name, "power_mw");
  EXPECT_EQ(p.spec().target_unit, "mW");
  ASSERT_EQ(p.dim(), 2u);
  EXPECT_EQ(p.parameter_names(), (std::vector<std::string>{"WCS", "RLOAD"}));
  EXPECT_DOUBLE_EQ(p.lower_bounds()[0], 2e-6);
  EXPECT_DOUBLE_EQ(p.upper_bounds()[1], 20e3);
  ASSERT_EQ(p.spec().constraints.size(), 3u);
  EXPECT_EQ(p.spec().constraints[0].name, "GAIN");
  EXPECT_EQ(p.spec().constraints[1].bound, 1e6);
  EXPECT_TRUE(p.supports_process_variation());
  EXPECT_EQ(p.num_metrics(), 4u);
}

TEST(DeckProblem, EvaluatesAnalyticDivider) {
  const DeckProblem p = DeckProblem::from_text(kDividerDeck, kDividerSpec);
  EXPECT_FALSE(p.supports_process_variation());  // no MOSFETs
  Vec x(1);
  x[0] = 3000.0;
  const auto r = p.evaluate(x);
  ASSERT_TRUE(r.simulation_ok);
  EXPECT_NEAR(r.metrics[0], 0.25, 1e-9);  // 1 - 3k/4k
  EXPECT_NEAR(r.metrics[1], 0.75, 1e-9);
  EXPECT_TRUE(p.feasible(r.metrics));

  x[0] = 500.0;  // V(out) = 1/3 — constraint violated
  const auto r2 = p.evaluate(x);
  ASSERT_TRUE(r2.simulation_ok);
  EXPECT_NEAR(r2.metrics[1], 1.0 / 3.0, 1e-9);
  EXPECT_FALSE(p.feasible(r2.metrics));
}

TEST(DeckProblem, SessionMatchesEvaluateBitwise) {
  const DeckProblem p = DeckProblem::from_text(kCsDeck, kCsSpec);
  Vec x(2);
  x[0] = 30e-6;
  x[1] = 8e3;
  const auto direct = p.evaluate(x);
  ASSERT_TRUE(direct.simulation_ok);

  auto session = p.make_session();
  const auto first = session->evaluate(x);
  const auto second = session->evaluate(x);  // re-targeted, same design
  for (std::size_t k = 0; k < direct.metrics.size(); ++k) {
    EXPECT_EQ(direct.metrics[k], first.metrics[k]) << "metric " << k;
    EXPECT_EQ(first.metrics[k], second.metrics[k]) << "metric " << k;
  }
}

TEST(DeckProblem, SessionReusedAcrossDesigns) {
  const DeckProblem p = DeckProblem::from_text(kCsDeck, kCsSpec);
  auto session = p.make_session();
  Vec a(2), b(2);
  a[0] = 10e-6;
  a[1] = 4e3;
  b[0] = 60e-6;
  b[1] = 12e3;
  const auto ra = session->evaluate(a);
  const auto rb = session->evaluate(b);
  const auto ra_again = session->evaluate(a);  // b's state must not leak into a
  ASSERT_TRUE(ra.simulation_ok);
  ASSERT_TRUE(rb.simulation_ok);
  for (std::size_t k = 0; k < ra.metrics.size(); ++k)
    EXPECT_EQ(ra.metrics[k], ra_again.metrics[k]) << "metric " << k;
  EXPECT_NE(ra.metrics[0], rb.metrics[0]);
}

TEST(DeckProblem, FingerprintStableAcrossReformatting) {
  const DeckProblem a = DeckProblem::from_text(kCsDeck, kCsSpec);
  const std::string reformatted = std::string("* a comment\n") + kCsDeck + "\n* trailing\n";
  const DeckProblem b = DeckProblem::from_text(reformatted, kCsSpec);
  EXPECT_NE(a.content_fingerprint(), 0u);
  EXPECT_EQ(a.content_fingerprint(), b.content_fingerprint());
}

TEST(DeckProblem, FingerprintDistinguishesCircuitAndSpec) {
  const DeckProblem base = DeckProblem::from_text(kCsDeck, kCsSpec);
  // Same spec, different circuit (load capacitor value).
  std::string other_deck = kCsDeck;
  other_deck.replace(other_deck.find("200f"), 4, "300f");
  EXPECT_NE(DeckProblem::from_text(other_deck, kCsSpec).content_fingerprint(),
            base.content_fingerprint());
  // Same circuit, different spec (constraint bound).
  std::string other_spec = kCsSpec;
  other_spec.replace(other_spec.find(">= 12"), 5, ">= 14");
  EXPECT_NE(DeckProblem::from_text(kCsDeck, other_spec).content_fingerprint(),
            base.content_fingerprint());
}

TEST(DeckProblem, IntegerMaskAndClip) {
  const DeckProblem p = DeckProblem::from_text(R"(
.param A=2 B=3
R1 x 0 {A*1k}
R2 x 0 {B*1k}
V1 x 0 1
.op
.measure op vx v v(x)
)",
                                               R"(
name intmask
param A lower=1 upper=8 integer
param B lower=1k upper=9k
minimize VX
)");
  ASSERT_EQ(p.dim(), 2u);
  EXPECT_TRUE(p.integer_mask()[0]);
  EXPECT_FALSE(p.integer_mask()[1]);
  Vec x(2);
  x[0] = 3.4;
  x[1] = 20e3;
  const Vec clipped = p.clip(x);
  EXPECT_DOUBLE_EQ(clipped[0], 3.0);
  EXPECT_DOUBLE_EQ(clipped[1], 9e3);
}

TEST(DeckProblem, CompileErrors) {
  // Spec param that is not a deck .param.
  EXPECT_THROW(DeckProblem::from_text(kDividerDeck, R"(
param NOPE lower=1 upper=2
minimize {1}
)"),
               std::invalid_argument);
  // Objective referencing an unknown name.
  EXPECT_THROW(DeckProblem::from_text(kDividerDeck, R"(
param R2VAL lower=100 upper=10k
minimize MISSING
)"),
               std::invalid_argument);
  // Measure probing a node that does not exist in the circuit.
  EXPECT_THROW(DeckProblem::from_text(R"(
V1 in 0 1
R1 in 0 1k
.op
.measure op v1 v v(ghost)
)",
                                      "param R2VAL lower=1 upper=2\nminimize V1\n"),
               std::invalid_argument);
}

TEST(DeckProblem, NonFiniteSpecBoundRejected) {
  for (const std::string upper : {"inf", "nan", "1e308k"}) {
    try {
      DeckProblem::from_text(kDividerDeck,
                             "param R2VAL lower=100 upper=" + upper + "\nminimize {1 - VOUT}\n");
      FAIL() << "upper=" << upper << " compiled";
    } catch (const spice::ParseError& e) {
      EXPECT_EQ(e.line(), 1) << e.what();
    }
  }
}

TEST(DeckProblem, FrequencyGridIsBoundedAndNamedAtItsCard) {
  // kDividerDeck's lines 2-8, then the .ac card on line 9.
  const auto compile = [](const std::string& ac_card) {
    return DeckProblem::from_text(std::string(kDividerDeck) + ac_card + "\n", kDividerSpec);
  };
  for (const std::string card : {".ac dec 10 1 0", ".ac dec 10 1k 1", ".ac dec 1000 1e-100 1e100"}) {
    try {
      compile(card);
      ADD_FAILURE() << card << " compiled";
    } catch (const spice::ParseError& e) {
      ADD_FAILURE() << card << ": " << e.what();
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("<deck>:9"), std::string::npos) << e.what();
    }
  }
  // A points-per-decade count past the int range is a syntax error, not an
  // undefined cast.
  EXPECT_THROW(compile(".ac dec 1e20 1 1meg"), spice::ParseError);
  EXPECT_NO_THROW(compile(".ac dec 10 1 1meg"));
}

TEST(DeckProblem, DesignableDrivingFixedFieldRejected) {
  // Inductor values are fixed at netlist-build time.
  EXPECT_THROW(DeckProblem::from_text(R"(
.param LVAL=1m
V1 in 0 1
L1 in out {LVAL}
R1 out 0 1k
.op
.measure op vout v v(out)
)",
                                      "param LVAL lower=1u upper=1\nminimize VOUT\n"),
               std::invalid_argument);
  // Analysis sweep grids are design-independent by contract.
  EXPECT_THROW(DeckProblem::from_text(R"(
.param FMAX=1g
V1 in 0 DC 1 AC 1
R1 in out 1k
C1 out 0 1p
.op
.ac dec 10 1 {FMAX}
.measure ac bw bw v(out) default=0
)",
                                      "param FMAX lower=1meg upper=10g\nminimize BW\n"),
               std::invalid_argument);
}

TEST(DeckProblem, MeasureDefaultFallback) {
  // A 100% feed-through "amplifier" never crosses unity from above, so UGF is
  // undefined; default= must kick in instead of failing the evaluation.
  const DeckProblem p = DeckProblem::from_text(R"(
.param RVAL=1k
V1 in 0 DC 1 AC 1
R1 in out {RVAL}
C1 out 0 1n
.op
.ac dec 10 1 1meg
.measure ac ugf ugf v(out) default=123
)",
                                               R"(
param RVAL lower=100 upper=10k
minimize UGF
)");
  Vec x(1);
  x[0] = 1000.0;
  const auto r = p.evaluate(x);
  ASSERT_TRUE(r.simulation_ok);
  EXPECT_DOUBLE_EQ(r.metrics[0], 123.0);
}

TEST(DeckProblem, VariationIsSeededAndDeterministic) {
  const DeckProblem p = DeckProblem::from_text(kCsDeck, kCsSpec);
  Vec x(2);
  x[0] = 30e-6;
  x[1] = 8e3;
  ckt::ProcessVariation pv;
  pv.sigma_vth = 0.05;
  pv.seed = 7;
  const auto nominal = p.evaluate(x);
  const auto varied = p.evaluate_at(x, pv);
  const auto varied_again = p.evaluate_at(x, pv);
  ASSERT_TRUE(varied.simulation_ok);
  for (std::size_t k = 0; k < varied.metrics.size(); ++k)
    EXPECT_EQ(varied.metrics[k], varied_again.metrics[k]) << "metric " << k;
  EXPECT_NE(nominal.metrics[1], varied.metrics[1]);  // gain moves with Vth

  pv.seed = 8;
  const auto other_seed = p.evaluate_at(x, pv);
  EXPECT_NE(varied.metrics[1], other_seed.metrics[1]);

  // Sessions pinned via make_session_at agree with evaluate_at.
  pv.seed = 7;
  auto session = p.make_session_at(pv);
  const auto via_session = session->evaluate(x);
  for (std::size_t k = 0; k < varied.metrics.size(); ++k)
    EXPECT_EQ(varied.metrics[k], via_session.metrics[k]) << "metric " << k;
}

TEST(DeckProblem, FailedSimulationReportsFailureMetrics) {
  // Designable resistor driven to a value that floats the probe node is fine,
  // but an unknown-measure default path is covered above; here force failure
  // via a nonsensical tran grid at evaluation time is impossible (compile
  // validates), so use a deck whose DC solve cannot converge: a floating
  // gate with subthreshold feedback is hard to build analytically — instead
  // drive the divider with x outside physical range via clip-free evaluate.
  const DeckProblem p = DeckProblem::from_text(kDividerDeck, kDividerSpec);
  Vec x(1);
  x[0] = -1e3;  // negative resistance: DC still solves; metrics stay finite
  const auto r = p.evaluate(x);
  // Either a clean solve with finite metrics or explicit failure metrics —
  // never NaN leaking into the optimizer.
  for (const double m : r.metrics) EXPECT_TRUE(std::isfinite(m));
}

// The acceptance gate: a deck-compiled five-transistor OTA must agree with a
// handwritten Netlist of the same circuit, measure for measure.
TEST(DeckProblem, AgreesWithHandwrittenOta) {
  const char* ota_deck = R"(
.model n180 NMOS
.model p180 PMOS
.param W1=20u
.param W3=10u
.param W5=5u
.param L1=1u
.param MTAIL=4
VDD vdd 0 1.8
VINP inp 0 DC 0.9 AC 1
VINN inn 0 DC 0.9
IB vdd vbn 20u
.subckt nmirror in out ratio=1 w=5u l=1u
MDIODE in in 0 0 n180 W={w} L={l}
MOUT out in 0 0 n180 W={w} L={l} M={ratio}
.ends
XTAIL vbn tail nmirror ratio={MTAIL} w={W5} l={L1}
M1 n1 inn tail 0 n180 W={W1} L={L1}
M2 out inp tail 0 n180 W={W1} L={L1}
M3 n1 n1 vdd vdd p180 W={W3} L={L1}
M4 out n1 vdd vdd p180 W={W3} L={L1}
CL out 0 500f
.op
.ac dec 10 1 1g
.measure op power supplypower VDD
.measure ac gain dcgain v(out)
.measure ac ugf ugf v(out) default=0
)";
  const char* ota_spec = R"(
name ota_agreement
param W1 lower=2u upper=100u
param W3 lower=2u upper=100u
param W5 lower=2u upper=50u
param L1 lower=0.18u upper=2u
param MTAIL lower=1 upper=8 integer
minimize {POWER*1e3} name=power unit=mW
constraint GAIN >= 25 unit=dB
constraint UGF >= 1meg unit=Hz
)";
  const DeckProblem p = DeckProblem::from_text(ota_deck, ota_spec);
  Vec x(5);
  x[0] = 20e-6;
  x[1] = 10e-6;
  x[2] = 5e-6;
  x[3] = 1e-6;
  x[4] = 4.0;
  const auto deck_result = p.evaluate(x);
  ASSERT_TRUE(deck_result.simulation_ok);

  // Handwritten: same topology built directly on the Netlist API, with the
  // mirror subcircuit flattened by hand.
  using namespace maopt::spice;
  Netlist net;
  const MosModel nm = MosModel::nmos_180();
  const MosModel pm = MosModel::pmos_180();
  const int vdd = net.node("vdd");
  const int inp = net.node("inp");
  const int inn = net.node("inn");
  const int vbn = net.node("vbn");
  const int tail = net.node("tail");
  const int n1 = net.node("n1");
  const int out = net.node("out");
  auto* vdd_src = net.add<VSource>(vdd, kGround, Waveform::dc(1.8), 0.0);
  net.add<VSource>(inp, kGround, Waveform::dc(0.9), 1.0);
  net.add<VSource>(inn, kGround, Waveform::dc(0.9), 0.0);
  net.add<ISource>(vdd, vbn, Waveform::dc(20e-6), 0.0);
  net.add<Mosfet>(vbn, vbn, kGround, kGround, nm, x[2], x[3], 1.0);   // XTAIL.MDIODE
  net.add<Mosfet>(tail, vbn, kGround, kGround, nm, x[2], x[3], x[4]); // XTAIL.MOUT
  net.add<Mosfet>(n1, inn, tail, kGround, nm, x[0], x[3], 1.0);       // M1
  net.add<Mosfet>(out, inp, tail, kGround, nm, x[0], x[3], 1.0);      // M2
  net.add<Mosfet>(n1, n1, vdd, vdd, pm, x[1], x[3], 1.0);             // M3
  net.add<Mosfet>(out, n1, vdd, vdd, pm, x[1], x[3], 1.0);            // M4
  net.add<Capacitor>(out, kGround, 500e-15);
  net.prepare();

  DcAnalysis dc;
  const DcResult op = dc.solve(net);
  ASSERT_TRUE(op.converged);
  AcAnalysis ac;
  const AcSweep sweep = ac.run(net, op.x, log_frequency_grid(1.0, 1e9, 10));

  const double power = std::abs(vdd_src->branch_current(op.x) * 1.8);
  const double gain = dc_gain_db(sweep, out);
  const auto ugf = unity_gain_frequency(sweep, out);
  ASSERT_TRUE(ugf.has_value());

  const double rel = 1e-9;
  EXPECT_NEAR(deck_result.metrics[0], power * 1e3, std::abs(power * 1e3) * rel);
  EXPECT_NEAR(deck_result.metrics[1], gain, std::abs(gain) * rel);
  EXPECT_NEAR(deck_result.metrics[2], *ugf, std::abs(*ugf) * rel);
  EXPECT_GT(deck_result.metrics[1], 25.0);  // the OTA actually has gain
}

}  // namespace
}  // namespace maopt::deck
