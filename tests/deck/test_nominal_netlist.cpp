// Element-card decks built through the one SPICE frontend:
// elaborate_deck_text, then build_nominal_netlist. Syntax errors surface as
// spice::ParseError with the deck line; binding errors (an unknown model or
// model parameter) surface at build time as std::invalid_argument naming the
// card's location, the contract DeckProblem documents.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "deck/deck_problem.hpp"
#include "deck/elaborator.hpp"
#include "spice/ac_analysis.hpp"
#include "spice/dc_analysis.hpp"
#include "spice/dc_sweep.hpp"
#include "spice/devices.hpp"
#include "spice/mosfet.hpp"
#include "spice/netlist.hpp"
#include "spice/op_report.hpp"

namespace maopt::deck {
namespace {

using namespace maopt::spice;

/// The device built from the element card named `label` (upper-cased, as
/// the elaborator stores it); nullptr when absent or of another type.
template <typename T>
T* find_device(const Netlist& net, const std::string& label) {
  for (const auto& device : net.devices())
    if (net.label(device.get()) == label) return dynamic_cast<T*>(device.get());
  return nullptr;
}

/// Asserts that `text` elaborates but fails to build with
/// std::invalid_argument whose message starts with `location`.
void expect_binding_error(const std::string& text, const std::string& location) {
  const ElaboratedDeck deck = elaborate_deck_text(text);
  Netlist net;
  try {
    build_nominal_netlist(deck, net);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind(location + ": ", 0), 0u) << e.what();
  }
}

TEST(Parser, ResistorDividerDeck) {
  Netlist net;
  build_nominal_netlist(elaborate_deck_text(R"(
* simple divider
V1 vin 0 DC 10
R1 vin mid 1k
R2 mid 0 3k
)"),
                        net);
  EXPECT_EQ(net.devices().size(), 3u);
  DcAnalysis dc;
  const auto r = dc.solve(net);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(Netlist::voltage(r.x, net.find_node("mid")), 7.5, 1e-6);
}

TEST(Parser, BareValueSourceShorthand) {
  Netlist net;
  build_nominal_netlist(elaborate_deck_text("V1 a 0 1.8\nR1 a 0 1k\n"), net);
  DcAnalysis dc;
  const auto r = dc.solve(net);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(Netlist::voltage(r.x, net.find_node("a")), 1.8, 1e-9);
}

TEST(Parser, AcMagnitudeAndRcResponse) {
  Netlist net;
  build_nominal_netlist(elaborate_deck_text(R"(
V1 in 0 DC 0 AC 1
R1 in out 1k
C1 out 0 1u
)"),
                        net);
  Vec op(net.system_size(), 0.0);
  AcAnalysis ac;
  const double fc = 1.0 / (2.0 * 3.14159265358979 * 1e-3);
  const auto sweep = ac.run(net, op, {fc});
  EXPECT_NEAR(std::abs(sweep.voltage(0, net.find_node("out"))), 1.0 / std::sqrt(2.0), 1e-4);
}

TEST(Parser, MosfetWithModelCard) {
  Netlist net;
  build_nominal_netlist(elaborate_deck_text(R"(
.model mynmos NMOS VTO=0.5 KP=200u
Vd d 0 1.8
Vg g 0 1.0
M1 d g 0 0 mynmos W=10u L=1u
)"),
                        net);
  DcAnalysis dc;
  const auto r = dc.solve(net);
  ASSERT_TRUE(r.converged);
  const auto* m1 = find_device<Mosfet>(net, "M1");
  ASSERT_NE(m1, nullptr);
  // vov = 0.5, k = 200u*10 = 2m, lambda = 0.08 (default nmos_180 lambda_l/L)
  const double expect = 0.5 * 2e-3 * 0.25 * (1 + 0.08 * 1.8);
  EXPECT_NEAR(m1->drain_current(r.x), expect, 1e-8);
}

TEST(Parser, PulseAndPwlSources) {
  Netlist net;
  build_nominal_netlist(elaborate_deck_text(R"(
V1 a 0 PULSE(0 1 1u 10n 10n 2u 10u)
V2 b 0 PWL(0 0 1u 0 2u 5)
R1 a 0 1k
R2 b 0 1k
)"),
                        net);
  const auto* v1 = find_device<VSource>(net, "V1");
  const auto* v2 = find_device<VSource>(net, "V2");
  ASSERT_NE(v1, nullptr);
  ASSERT_NE(v2, nullptr);
  EXPECT_DOUBLE_EQ(v1->waveform().value(0.5e-6), 0.0);
  EXPECT_DOUBLE_EQ(v1->waveform().value(2e-6), 1.0);
  EXPECT_DOUBLE_EQ(v2->waveform().value(1.5e-6), 2.5);
}

TEST(Parser, VcvsAndInductor) {
  Netlist net;
  build_nominal_netlist(elaborate_deck_text(R"(
V1 in 0 2
E1 out 0 in 0 5
L1 out lx 1m
R1 lx 0 1k
)"),
                        net);
  DcAnalysis dc;
  const auto r = dc.solve(net);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(Netlist::voltage(r.x, net.find_node("out")), 10.0, 1e-6);
  EXPECT_NEAR(Netlist::voltage(r.x, net.find_node("lx")), 10.0, 1e-6);
}

TEST(Parser, CommentsAndBlankLinesIgnored) {
  Netlist net;
  build_nominal_netlist(elaborate_deck_text(R"(
* header comment

R1 a 0 1k ; trailing comment
* another
)"),
                        net);
  EXPECT_EQ(net.devices().size(), 1u);
}

TEST(Parser, CaseInsensitiveElementNames) {
  Netlist net;
  build_nominal_netlist(elaborate_deck_text("r1 a 0 1k\nc1 a 0 1p\n"), net);
  EXPECT_NE(find_device<Resistor>(net, "R1"), nullptr);
  EXPECT_NE(find_device<Capacitor>(net, "C1"), nullptr);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  try {
    elaborate_deck_text("R1 a 0 1k\nQ1 a b c\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.file(), "<deck>");
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(std::string(e.what()).rfind("<deck>:2: ", 0), 0u) << e.what();
  }
}

TEST(Parser, UnknownModelIsError) {
  // A card naming an undeclared model is well-formed syntax; binding fails.
  expect_binding_error("M1 d g 0 0 nosuch W=1u L=1u\n", "<deck>:1");
}

TEST(Parser, MissingModelCardFieldsError) {
  expect_binding_error(".model m NMOS FOO=1\n", "<deck>:1");
  EXPECT_THROW(elaborate_deck_text(".model m BJT\n"), ParseError);
}

TEST(Parser, MalformedElementArityError) {
  EXPECT_THROW(elaborate_deck_text("R1 a 0\n"), ParseError);
  EXPECT_THROW(elaborate_deck_text("E1 a 0 b\n"), ParseError);
}

TEST(Parser, NonFiniteElementValueIsError) {
  try {
    elaborate_deck_text("R1 a 0 1k\nR2 a 0 1e308k\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(Parser, UnknownDotCardsBecomeWarnings) {
  const ElaboratedDeck deck = elaborate_deck_text(R"(
R1 a 0 1k
.options reltol=1e-4
.temp 27
)");
  Netlist net;
  build_nominal_netlist(deck, net);
  EXPECT_EQ(net.devices().size(), 1u);  // parsing continued past the cards
  ASSERT_EQ(deck.warnings.size(), 2u);
  EXPECT_NE(deck.warnings[0].find("<deck>:3"), std::string::npos);
  EXPECT_NE(deck.warnings[0].find(".options"), std::string::npos);
  EXPECT_NE(deck.warnings[1].find(".temp"), std::string::npos);
}

TEST(Parser, EndCardTerminatesDeck) {
  const ElaboratedDeck deck = elaborate_deck_text(R"(
R1 a 0 1k
.end
R2 a 0 2k
this line would be a parse error if it were reached
)");
  Netlist net;
  build_nominal_netlist(deck, net);
  EXPECT_EQ(net.devices().size(), 1u);
  EXPECT_EQ(find_device<Resistor>(net, "R2"), nullptr);
  EXPECT_TRUE(deck.warnings.empty());
}

TEST(Parser, FullAmplifierDeckEndToEnd) {
  Netlist net;
  build_nominal_netlist(elaborate_deck_text(R"(
* NMOS common-source amplifier
.model n180 NMOS
VDD vdd 0 1.8
VIN in 0 DC 0.7 AC 1
RL vdd out 5k
M1 out in 0 0 n180 W=20u L=1u
CL out 0 200f
)"),
                        net);
  DcAnalysis dc;
  const auto op = dc.solve(net);
  ASSERT_TRUE(op.converged);
  AcAnalysis ac;
  const auto sweep = ac.run(net, op.x, {1e3});
  // Inverting gain > 1 at low frequency.
  EXPECT_GT(std::abs(sweep.voltage(0, net.find_node("out"))), 2.0);
}

TEST(OpReport, NamesRegionsAndCurrentsFromParsedDeck) {
  Netlist net;
  build_nominal_netlist(elaborate_deck_text(R"(
.model n180 NMOS
VDD vdd 0 1.8
VIN in 0 0.7
RL vdd out 5k
M1 out in 0 0 n180 W=20u L=1u
)"),
                        net);
  DcAnalysis dc;
  const auto op = dc.solve(net);
  ASSERT_TRUE(op.converged);
  const std::string report = operating_point_report(net, op.x);
  EXPECT_NE(report.find("M1"), std::string::npos);
  EXPECT_NE(report.find("saturation"), std::string::npos);
  EXPECT_NE(report.find("RL"), std::string::npos);
  EXPECT_NE(report.find("VDD"), std::string::npos);
  EXPECT_NE(report.find("V(out)"), std::string::npos);
}

TEST(DcSweepAnalysis, WarmStartTracksNonlinearCurve) {
  // MOS inverter transfer curve: must be monotone decreasing and converged
  // at every point thanks to warm starting.
  Netlist net;
  build_nominal_netlist(elaborate_deck_text(R"(
.model n180 NMOS
VDD vdd 0 1.8
VIN in 0 0
RL vdd out 10k
M1 out in 0 0 n180 W=10u L=0.5u
)"),
                        net);
  auto* vin = find_device<VSource>(net, "VIN");
  ASSERT_NE(vin, nullptr);
  DcSweep sweep;
  const auto grid = DcSweep::linear_grid(0.0, 1.8, 19);
  const auto result = sweep.run(net, grid, [&](double v) { vin->set_dc(v); });
  ASSERT_TRUE(result.all_converged);
  const auto curve = result.node_curve(net.find_node("out"));
  for (std::size_t k = 1; k < curve.size(); ++k) EXPECT_LE(curve[k], curve[k - 1] + 1e-9);
}

}  // namespace
}  // namespace maopt::deck
