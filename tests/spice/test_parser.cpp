#include "spice/parser.hpp"

#include <gtest/gtest.h>

namespace maopt::spice {
namespace {

TEST(SpiceValue, PlainNumbers) {
  EXPECT_DOUBLE_EQ(parse_spice_value("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(parse_spice_value("-3"), -3.0);
  EXPECT_DOUBLE_EQ(parse_spice_value("1e-9"), 1e-9);
}

TEST(SpiceValue, EngineeringSuffixes) {
  EXPECT_DOUBLE_EQ(parse_spice_value("1k"), 1e3);
  EXPECT_DOUBLE_EQ(parse_spice_value("2.2u"), 2.2e-6);
  EXPECT_DOUBLE_EQ(parse_spice_value("100f"), 100e-15);
  EXPECT_DOUBLE_EQ(parse_spice_value("10p"), 10e-12);
  EXPECT_DOUBLE_EQ(parse_spice_value("5n"), 5e-9);
  EXPECT_DOUBLE_EQ(parse_spice_value("3m"), 3e-3);
  EXPECT_DOUBLE_EQ(parse_spice_value("2meg"), 2e6);
  EXPECT_DOUBLE_EQ(parse_spice_value("1g"), 1e9);
  EXPECT_DOUBLE_EQ(parse_spice_value("4t"), 4e12);
}

TEST(SpiceValue, UnitLettersAfterSuffixIgnored) {
  EXPECT_DOUBLE_EQ(parse_spice_value("10pF"), 10e-12);
  EXPECT_DOUBLE_EQ(parse_spice_value("1kOhm"), 1e3);
}

TEST(SpiceValue, MalformedThrows) {
  EXPECT_THROW(parse_spice_value(""), std::invalid_argument);
  EXPECT_THROW(parse_spice_value("abc"), std::invalid_argument);
  EXPECT_THROW(parse_spice_value("1.5x"), std::invalid_argument);
}

TEST(SpiceValue, NonFiniteThrows) {
  EXPECT_THROW(parse_spice_value("nan"), std::invalid_argument);
  EXPECT_THROW(parse_spice_value("inf"), std::invalid_argument);
  EXPECT_THROW(parse_spice_value("-Infinity"), std::invalid_argument);
  EXPECT_THROW(parse_spice_value("1e309"), std::invalid_argument);
  // The mantissa is finite; only the engineering scale pushes it past DBL_MAX.
  EXPECT_THROW(parse_spice_value("1e308k"), std::invalid_argument);
  EXPECT_THROW(parse_spice_value("-2e303meg"), std::invalid_argument);
  EXPECT_DOUBLE_EQ(parse_spice_value("1e300k"), 1e303);
}

TEST(SpiceValue, MegVersusMilli) {
  // The classic SPICE trap: M is milli, MEG is mega — in any case mix.
  EXPECT_DOUBLE_EQ(parse_spice_value("3M"), 3e-3);
  EXPECT_DOUBLE_EQ(parse_spice_value("3m"), 3e-3);
  EXPECT_DOUBLE_EQ(parse_spice_value("3MEG"), 3e6);
  EXPECT_DOUBLE_EQ(parse_spice_value("3Meg"), 3e6);
  EXPECT_DOUBLE_EQ(parse_spice_value("2MEGHz"), 2e6);  // unit letters after MEG
  EXPECT_DOUBLE_EQ(parse_spice_value("50mV"), 50e-3);  // V is a unit, not a suffix
}

TEST(SpiceValue, MilSuffix) {
  EXPECT_DOUBLE_EQ(parse_spice_value("1mil"), 25.4e-6);
  EXPECT_DOUBLE_EQ(parse_spice_value("5MIL"), 5 * 25.4e-6);
  EXPECT_DOUBLE_EQ(parse_spice_value("2milInch"), 2 * 25.4e-6);
}

TEST(SpiceValue, ExponentThenSuffix) {
  // stod consumes the exponent; the engineering suffix still multiplies.
  EXPECT_DOUBLE_EQ(parse_spice_value("1.5e2u"), 1.5e2 * 1e-6);
  EXPECT_DOUBLE_EQ(parse_spice_value("1e3k"), 1e6);
  EXPECT_DOUBLE_EQ(parse_spice_value("2E-1m"), 2e-4);
}

TEST(SpiceValue, NegativeValuesKeepSuffix) {
  EXPECT_DOUBLE_EQ(parse_spice_value("-2.2u"), -2.2e-6);
  EXPECT_DOUBLE_EQ(parse_spice_value("-1meg"), -1e6);
  EXPECT_DOUBLE_EQ(parse_spice_value("-100f"), -100e-15);
}

TEST(ParseErrorContext, FileAndIncludeChainForm) {
  const ParseError e("lib/mos.lib", 12, "unknown model",
                     {"top.cir:3", "amp.inc:9"});
  EXPECT_EQ(e.file(), "lib/mos.lib");
  EXPECT_EQ(e.line(), 12);
  ASSERT_EQ(e.include_chain().size(), 2u);
  EXPECT_STREQ(e.what(),
               "lib/mos.lib:12 (included from top.cir:3, amp.inc:9): unknown model");
}

}  // namespace
}  // namespace maopt::spice
