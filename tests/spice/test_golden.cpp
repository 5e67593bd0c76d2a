// Golden-value regression tests for the solver hot path.
//
// The factor/solve split, the allocation-free Newton workspace, and the
// G + jωC AC decomposition must not change simulator answers. Each test
// compares the reworked path against the dense one-shot reference that
// predates it (build_ac_system + a fresh LU factorization per solve) on a
// nonlinear MOSFET testbench, to a 1e-12 relative tolerance.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "../support/naive_linalg.hpp"
#include "spice/ac_analysis.hpp"
#include "spice/dc_analysis.hpp"
#include "spice/devices.hpp"
#include "spice/mosfet.hpp"
#include "spice/noise_analysis.hpp"
#include "spice/tran_analysis.hpp"

namespace maopt::spice {
namespace {

using C = std::complex<double>;

double rel_err(double got, double want) {
  return std::abs(got - want) / std::max(std::abs(want), 1e-30);
}

double rel_err(C got, C want) { return std::abs(got - want) / std::max(std::abs(want), 1e-30); }

using linalg::testing::dense_solve;

struct AmpBench {
  Netlist net;
  VSource* vin = nullptr;
  int out = 0;

  AmpBench() {
    const int vdd = net.node("vdd");
    const int in = net.node("in");
    const int mid = net.node("mid");
    out = net.node("out");
    const int vbn = net.node("vbn");

    const MosModel nm = MosModel::nmos_180();
    const MosModel pm = MosModel::pmos_180();

    net.add<VSource>(vdd, kGround, Waveform::dc(1.8));
    vin = net.add<VSource>(in, kGround, Waveform::dc(0.7), /*ac_mag=*/1.0);
    net.add<ISource>(vdd, vbn, Waveform::dc(20e-6));
    net.add<Mosfet>(vbn, vbn, kGround, kGround, nm, 10e-6, 1e-6);
    net.add<Mosfet>(mid, in, kGround, kGround, nm, 20e-6, 0.5e-6);
    net.add<Mosfet>(mid, mid, vdd, vdd, pm, 10e-6, 0.5e-6);
    net.add<Mosfet>(out, mid, vdd, vdd, pm, 40e-6, 0.5e-6, 2.0);
    net.add<Mosfet>(out, vbn, kGround, kGround, nm, 20e-6, 1e-6, 2.0);
    net.add<Resistor>(out, mid, 50e3);
    net.add<Capacitor>(out, kGround, 1e-12);
    net.add<CurrentSinkLoad>(out, kGround, Waveform::dc(1e-6));
    net.prepare();
  }
};

TEST(GoldenAc, PartsCombineMatchesDirectAssembly) {
  AmpBench b;
  DcAnalysis dc;
  const DcResult op = dc.solve(b.net);
  ASSERT_TRUE(op.converged);

  Mat g, c;
  CVec rhs_parts;
  b.net.build_ac_parts(op.x, g, c, rhs_parts);

  for (const double f : {1.0, 1e3, 1e6, 1e9}) {
    const double omega = 2.0 * M_PI * f;
    CMat a_ref;
    CVec rhs_ref;
    b.net.build_ac_system(omega, op.x, a_ref, rhs_ref);

    CMat a_hot;
    combine_ac_system(g, c, omega, a_hot);

    ASSERT_EQ(a_hot.rows(), a_ref.rows());
    ASSERT_EQ(a_hot.cols(), a_ref.cols());
    for (std::size_t i = 0; i < a_ref.data().size(); ++i)
      EXPECT_LE(rel_err(a_hot.data()[i], a_ref.data()[i]), 1e-12)
          << "f=" << f << " entry " << i << " hot=" << a_hot.data()[i]
          << " ref=" << a_ref.data()[i];
    ASSERT_EQ(rhs_parts.size(), rhs_ref.size());
    for (std::size_t i = 0; i < rhs_ref.size(); ++i)
      EXPECT_EQ(rhs_parts[i], rhs_ref[i]) << "rhs entry " << i;
  }
}

TEST(GoldenAc, SweepMatchesOneShotLuReference) {
  AmpBench b;
  DcAnalysis dc;
  const DcResult op = dc.solve(b.net);
  ASSERT_TRUE(op.converged);

  const auto freqs = log_frequency_grid(1.0, 1e9, 6);
  AcAnalysis ac;
  const AcSweep sweep = ac.run(b.net, op.x, freqs);
  ASSERT_EQ(sweep.solutions.size(), freqs.size());

  for (std::size_t k = 0; k < freqs.size(); ++k) {
    const double omega = 2.0 * M_PI * freqs[k];
    CMat a_ref;
    CVec rhs_ref;
    b.net.build_ac_system(omega, op.x, a_ref, rhs_ref);
    const std::vector<C> x_ref = dense_solve(a_ref, rhs_ref);
    ASSERT_EQ(sweep.solutions[k].size(), x_ref.size());
    // Normwise relative error: componentwise comparison on tiny components
    // would amplify the ~1 ulp assembly difference past any fixed tolerance.
    double norm = 0.0;
    for (const C& v : x_ref) norm = std::max(norm, std::abs(v));
    for (std::size_t i = 0; i < x_ref.size(); ++i)
      EXPECT_LE(std::abs(sweep.solutions[k][i] - x_ref[i]), 1e-12 * norm)
          << "f=" << freqs[k] << " unknown " << i;
  }
}

TEST(GoldenDc, SolutionIsAFixedPointOfTheOneShotReference) {
  AmpBench b;
  DcAnalysis dc;
  const DcResult op = dc.solve(b.net);
  ASSERT_TRUE(op.converged);
  ASSERT_GT(op.iterations, 0);

  // One reference Newton step from the solution, assembled and solved with
  // the legacy dense path, must stay at the solution (to solver tolerance).
  Mat a;
  Vec rhs;
  b.net.build_nonlinear_system(op.x, 1.0, -1.0, 1e-12, a, rhs);
  const Vec x_next = dense_solve(a, rhs);
  for (std::size_t i = 0; i < op.x.size(); ++i)
    EXPECT_NEAR(x_next[i], op.x[i], 1e-6) << "unknown " << i;
}

TEST(GoldenDc, RepeatedSolvesOnOneAnalysisAreBitIdentical) {
  AmpBench b1, b2;
  DcAnalysis dc;
  // Warm the workspace on a different bench first: reuse must not leak state.
  AmpBench warm;
  warm.vin->set_dc(0.9);
  ASSERT_TRUE(dc.solve(warm.net).converged);

  const DcResult warm_reuse = dc.solve(b1.net);
  DcAnalysis fresh;
  const DcResult cold = fresh.solve(b2.net);
  ASSERT_TRUE(warm_reuse.converged);
  ASSERT_TRUE(cold.converged);
  ASSERT_EQ(warm_reuse.x.size(), cold.x.size());
  for (std::size_t i = 0; i < cold.x.size(); ++i) EXPECT_EQ(warm_reuse.x[i], cold.x[i]);
  EXPECT_EQ(warm_reuse.iterations, cold.iterations);
  EXPECT_EQ(warm_reuse.method, cold.method);
}

TEST(GoldenDc, WorkspaceBuffersAreStableAcrossSolves) {
  AmpBench b;
  DcAnalysis dc;
  ASSERT_TRUE(dc.solve(b.net).converged);

  const NewtonWorkspace& ws = dc.workspace();
  const double* a_ptr = ws.lu.matrix().data().data();
  const double* rhs_ptr = ws.rhs.data();
  const double* x_new_ptr = ws.x_new.data();
  const std::size_t solves0 = ws.solves;
  ASSERT_GT(ws.iterations, 0u);

  for (int round = 0; round < 8; ++round) {
    b.vin->set_dc(0.6 + 0.05 * round);
    ASSERT_TRUE(dc.solve(b.net).converged);
    EXPECT_EQ(ws.lu.matrix().data().data(), a_ptr);
    EXPECT_EQ(ws.rhs.data(), rhs_ptr);
    EXPECT_EQ(ws.x_new.data(), x_new_ptr);
  }
  EXPECT_GT(ws.solves, solves0);
}

TEST(GoldenTran, WorkspaceReuseIsBitIdenticalToFreshRun) {
  TranOptions topt;
  topt.t_stop = 50e-9;
  topt.dt = 0.5e-9;

  auto run_fresh = [&] {
    AmpBench b;
    b.vin->set_waveform(Waveform::pwl({{0.0, 0.7}, {5e-9, 0.7}, {6e-9, 0.8}}));
    return TranAnalysis(topt).run(b.net);
  };
  const TranResult r1 = run_fresh();
  const TranResult r2 = run_fresh();
  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r2.converged);
  ASSERT_GT(r1.newton_iterations, 0u);
  EXPECT_EQ(r1.newton_iterations, r2.newton_iterations);
  ASSERT_EQ(r1.num_steps(), r2.num_steps());
  ASSERT_EQ(r1.states.size(), r2.states.size());
  for (std::size_t i = 0; i < r1.states.size(); ++i) EXPECT_EQ(r1.states[i], r2.states[i]);
}

TEST(GoldenNoise, AdjointSolveMatchesOneShotTransposedReference) {
  AmpBench b;
  DcAnalysis dc;
  const DcResult op = dc.solve(b.net);
  ASSERT_TRUE(op.converged);

  const std::vector<double> freqs = {1e3, 1e6, 1e9};
  NoiseAnalysis noise;
  const NoiseResult nres = noise.run(b.net, op.x, b.out, kGround, freqs);
  ASSERT_EQ(nres.output_psd.size(), freqs.size());

  // Reference: dense transposed solve per frequency, PSD accumulated the
  // same way from the same collected noise sources.
  const auto sources = b.net.collect_noise(op.x);
  ASSERT_FALSE(sources.empty());
  for (std::size_t k = 0; k < freqs.size(); ++k) {
    const double omega = 2.0 * M_PI * freqs[k];
    CMat a;
    CVec rhs;
    b.net.build_ac_system(omega, op.x, a, rhs);
    CVec e_out(a.rows(), C{});
    e_out[static_cast<std::size_t>(b.out)] = C(1.0, 0.0);
    const CVec z = dense_solve(a, e_out, /*transposed=*/true);
    double psd = 0.0;
    for (const auto& s : sources) {
      C tf{};
      if (s.node_a != kGround) tf += z[static_cast<std::size_t>(s.node_a)];
      if (s.node_b != kGround) tf -= z[static_cast<std::size_t>(s.node_b)];
      psd += std::norm(tf) * s.psd(freqs[k]);
    }
    EXPECT_LE(rel_err(nres.output_psd[k], psd), 1e-12) << "f=" << freqs[k];
  }
}

}  // namespace
}  // namespace maopt::spice
