#include <gtest/gtest.h>

#include "circuits/process_variation.hpp"
#include "circuits/two_stage_ota.hpp"

namespace maopt::ckt {
namespace {

TEST(Corners, NamesAndTtIsNominal) {
  EXPECT_STREQ(corner_name(ProcessCorner::TT), "TT");
  EXPECT_STREQ(corner_name(ProcessCorner::FF), "FF");
  EXPECT_STREQ(corner_name(ProcessCorner::SF), "SF");
  EXPECT_FALSE(corner_variation(ProcessCorner::TT).enabled());
  EXPECT_TRUE(corner_variation(ProcessCorner::FF).enabled());
}

TEST(Corners, ShiftDirectionsPerType) {
  const auto ff = corner_variation(ProcessCorner::FF, 0.03, 0.10);
  EXPECT_DOUBLE_EQ(ff.nmos_vth_shift, -0.03);
  EXPECT_DOUBLE_EQ(ff.pmos_vth_shift, -0.03);
  EXPECT_DOUBLE_EQ(ff.nmos_kp_factor, 1.10);
  const auto fs = corner_variation(ProcessCorner::FS, 0.03, 0.10);
  EXPECT_DOUBLE_EQ(fs.nmos_vth_shift, -0.03);
  EXPECT_DOUBLE_EQ(fs.pmos_vth_shift, 0.03);
  EXPECT_DOUBLE_EQ(fs.pmos_kp_factor, 0.90);
}

TEST(Corners, VaryModelAppliesTypeSpecificShift) {
  Rng rng(1);
  const auto pv = corner_variation(ProcessCorner::SF);  // slow N, fast P
  const auto n = vary_model(spice::MosModel::nmos_180(), rng, pv);
  const auto p = vary_model(spice::MosModel::pmos_180(), rng, pv);
  EXPECT_GT(n.vth0, spice::MosModel::nmos_180().vth0);
  EXPECT_LT(n.kp, spice::MosModel::nmos_180().kp);
  EXPECT_LT(p.vth0, spice::MosModel::pmos_180().vth0);
  EXPECT_GT(p.kp, spice::MosModel::pmos_180().kp);
}

TEST(Corners, OtaPowerOrdersWithCornerSpeed) {
  // Faster devices at fixed bias geometry draw more current: FF power must
  // exceed SS power, with TT in between.
  TwoStageOta p;
  const linalg::Vec x =
      p.clip({1.0, 1.0, 1.0, 0.5, 0.5, 20, 10, 5, 40, 20, 2.0, 500, 1000, 4, 4, 4});
  const auto power_at = [&](ProcessCorner corner) {
    const EvalResult r = p.evaluate_at(x, corner_variation(corner));
    EXPECT_TRUE(r.simulation_ok) << corner_name(corner);
    return r.metrics[TwoStageOta::kPowerMw];
  };
  const double tt = power_at(ProcessCorner::TT);
  EXPECT_GT(power_at(ProcessCorner::FF), tt);
  EXPECT_LT(power_at(ProcessCorner::SS), tt);
}

TEST(Corners, EvaluationResetsToNominal) {
  // A corner is an argument, not a setting: after every corner, a plain
  // evaluate() is still nominal.
  TwoStageOta p;
  const linalg::Vec x =
      p.clip({1.0, 1.0, 1.0, 0.5, 0.5, 20, 10, 5, 40, 20, 2.0, 500, 1000, 4, 4, 4});
  const auto nominal = p.evaluate(x);
  for (const auto corner : {ProcessCorner::FF, ProcessCorner::SS, ProcessCorner::FS,
                            ProcessCorner::SF}) {
    EXPECT_NE(p.evaluate_at(x, corner_variation(corner)).metrics, nominal.metrics)
        << corner_name(corner);
    EXPECT_EQ(p.evaluate(x).metrics, nominal.metrics) << corner_name(corner);
  }
}

TEST(Corners, TtCornerMatchesNominalEvaluation) {
  TwoStageOta p;
  const linalg::Vec x =
      p.clip({1.0, 1.0, 1.0, 0.5, 0.5, 20, 10, 5, 40, 20, 2.0, 500, 1000, 4, 4, 4});
  EXPECT_EQ(p.evaluate_at(x, corner_variation(ProcessCorner::TT)).metrics,
            p.evaluate(x).metrics);
}

}  // namespace
}  // namespace maopt::ckt
