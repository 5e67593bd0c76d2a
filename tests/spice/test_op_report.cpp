#include "spice/op_report.hpp"

#include <gtest/gtest.h>

#include "spice/dc_analysis.hpp"
#include "spice/dc_sweep.hpp"
#include "spice/devices.hpp"

namespace maopt::spice {
namespace {

TEST(OpReport, UnlabeledDevicesGetIndexedFallbackNames) {
  Netlist n;
  const int a = n.node("a");
  n.add<VSource>(a, kGround, Waveform::dc(1.0));
  n.add<Resistor>(a, kGround, 1e3);
  DcAnalysis dc;
  const auto op = dc.solve(n);
  ASSERT_TRUE(op.converged);
  const std::string report = operating_point_report(n, op.x);
  EXPECT_NE(report.find("V#1"), std::string::npos);
  EXPECT_NE(report.find("R#2"), std::string::npos);
}

TEST(DcSweepAnalysis, LinearGridEndpoints) {
  const auto grid = DcSweep::linear_grid(0.0, 1.0, 5);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.0);
  EXPECT_DOUBLE_EQ(grid.back(), 1.0);
  EXPECT_DOUBLE_EQ(grid[2], 0.5);
  EXPECT_THROW(DcSweep::linear_grid(0, 1, 1), std::invalid_argument);
}

TEST(DcSweepAnalysis, DividerTransferIsLinear) {
  Netlist n;
  const int vin = n.node("vin");
  const int mid = n.node("mid");
  auto* src = n.add<VSource>(vin, kGround, Waveform::dc(0.0));
  n.add<Resistor>(vin, mid, 1e3);
  n.add<Resistor>(mid, kGround, 1e3);
  DcSweep sweep;
  const auto grid = DcSweep::linear_grid(0.0, 2.0, 11);
  const auto result = sweep.run(n, grid, [&](double v) { src->set_dc(v); });
  ASSERT_TRUE(result.all_converged);
  const auto curve = result.node_curve(mid);
  for (std::size_t k = 0; k < grid.size(); ++k)
    EXPECT_NEAR(curve[k], 0.5 * grid[k], 1e-6) << k;
}

}  // namespace
}  // namespace maopt::spice
