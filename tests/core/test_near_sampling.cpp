#include "core/near_sampling.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "../support/constrained_rosenbrock.hpp"
#include "circuits/analytic_problems.hpp"

namespace maopt::core {
namespace {

struct NsFixture : ::testing::Test {
  NsFixture()
      : problem(4),
        scaler(problem.lower_bounds(), problem.upper_bounds()),
        fom(problem, 1.0) {
    Rng rng(1);
    for (int i = 0; i < 80; ++i) {
      SimRecord r;
      r.x = problem.random_design(rng);
      r.metrics = problem.evaluate(r.x).metrics;
      r.simulation_ok = true;
      records.push_back(std::move(r));
    }
    CriticConfig cfg;
    cfg.hidden = {48, 48};
    cfg.steps_per_round = 40;
    Rng crng(2);
    critic = std::make_unique<Critic>(4, 3, cfg, crng);
    critic->fit_normalizer(records);
    PseudoSampleBatcher batcher(records, scaler);
    Rng trng(3);
    for (int i = 0; i < 25; ++i) critic->train_round(batcher, trng);
  }

  ckt::ConstrainedQuadratic problem;
  nn::RangeScaler scaler;
  ckt::FomEvaluator fom;
  std::vector<SimRecord> records;
  std::unique_ptr<Critic> critic;
};

TEST_F(NsFixture, CandidateStaysInsideDeltaBox) {
  NearSamplingConfig cfg;
  cfg.num_samples = 300;
  cfg.delta_frac = 0.05;
  const Vec x_opt(4, 0.5);
  Rng rng(4);
  const Vec cand = near_sampling_candidate(problem, fom, *critic, scaler, x_opt, cfg, rng);
  for (std::size_t c = 0; c < 4; ++c) EXPECT_LE(std::abs(cand[c] - 0.5), 0.05 + 1e-12);
}

TEST_F(NsFixture, CandidateClippedToGlobalBounds) {
  NearSamplingConfig cfg;
  cfg.num_samples = 200;
  cfg.delta_frac = 0.10;
  const Vec x_opt(4, 0.0);  // at the lower corner
  Rng rng(5);
  const Vec cand = near_sampling_candidate(problem, fom, *critic, scaler, x_opt, cfg, rng);
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_GE(cand[c], 0.0);
    EXPECT_LE(cand[c], 0.10 + 1e-12);
  }
}

TEST_F(NsFixture, PredictedBestMovesTowardTrueOptimum) {
  // With a decent critic and x_opt away from 0.3, the selected neighbour
  // should usually reduce the true objective.
  NearSamplingConfig cfg;
  cfg.num_samples = 1000;
  cfg.delta_frac = 0.04;
  const Vec x_opt(4, 0.5);
  Rng rng(6);
  const double before = fom(problem.evaluate(x_opt).metrics);
  int improved = 0;
  for (int trial = 0; trial < 5; ++trial) {
    const Vec cand = near_sampling_candidate(problem, fom, *critic, scaler, x_opt, cfg, rng);
    if (fom(problem.evaluate(cand).metrics) < before) ++improved;
  }
  EXPECT_GE(improved, 3);
}

TEST_F(NsFixture, SingleSampleDegenerateCase) {
  NearSamplingConfig cfg;
  cfg.num_samples = 1;
  cfg.delta_frac = 0.01;
  const Vec x_opt(4, 0.4);
  Rng rng(7);
  const Vec cand = near_sampling_candidate(problem, fom, *critic, scaler, x_opt, cfg, rng);
  for (std::size_t c = 0; c < 4; ++c) EXPECT_NEAR(cand[c], 0.4, 0.011);
}

TEST_F(NsFixture, IntegerParametersStayIntegral) {
  ckt::testing::ConstrainedRosenbrock rosen(3);  // last param integer
  nn::RangeScaler rscaler(rosen.lower_bounds(), rosen.upper_bounds());
  ckt::FomEvaluator rfom(rosen, 1.0);
  std::vector<SimRecord> recs;
  Rng rng(8);
  for (int i = 0; i < 30; ++i) {
    SimRecord r;
    r.x = rosen.random_design(rng);
    r.metrics = rosen.evaluate(r.x).metrics;
    recs.push_back(std::move(r));
  }
  CriticConfig cfg;
  cfg.hidden = {24, 24};
  cfg.steps_per_round = 10;
  Rng crng(9);
  Critic rcritic(3, 2, cfg, crng);
  rcritic.fit_normalizer(recs);
  PseudoSampleBatcher batcher(recs, rscaler);
  rcritic.train_round(batcher, crng);

  NearSamplingConfig ns;
  ns.num_samples = 100;
  ns.delta_frac = 0.2;
  const Vec x_opt{0.9, 0.9, 1.0};
  const Vec cand = near_sampling_candidate(rosen, rfom, rcritic, rscaler, x_opt, ns, rng);
  EXPECT_DOUBLE_EQ(cand[2], std::round(cand[2]));
}

/// The whole-matrix scan: draw every sample, predict them in one call, take
/// the first strict minimum.
Vec whole_matrix_candidate(const ckt::SizingProblem& problem, const ckt::FomEvaluator& fom,
                           Surrogate& critic, const nn::RangeScaler& scaler,
                           const Vec& x_opt_raw, const NearSamplingConfig& config, Rng& rng) {
  const std::size_t d = problem.dim();
  const Vec& lo = problem.lower_bounds();
  const Vec& hi = problem.upper_bounds();
  const Vec x_opt_unit = scaler.to_unit(x_opt_raw);
  const auto n = static_cast<std::size_t>(config.num_samples);
  std::vector<Vec> raw_samples;
  nn::Mat critic_in(n, 2 * d);
  for (std::size_t k = 0; k < n; ++k) {
    Vec s(d);
    for (std::size_t i = 0; i < d; ++i) {
      const double delta = config.delta_frac * (hi[i] - lo[i]);
      s[i] = std::clamp(x_opt_raw[i] + rng.uniform(-delta, delta), lo[i], hi[i]);
    }
    s = problem.clip(std::move(s));
    const Vec su = scaler.to_unit(s);
    for (std::size_t i = 0; i < d; ++i) {
      critic_in(k, i) = x_opt_unit[i];
      critic_in(k, d + i) = su[i] - x_opt_unit[i];
    }
    raw_samples.push_back(std::move(s));
  }
  const nn::Mat raw_metrics = critic.predict(critic_in);
  std::size_t best = 0;
  double best_g = 1e300;
  for (std::size_t k = 0; k < n; ++k) {
    const double g = fom(raw_metrics.row(k));
    if (g < best_g) {
      best_g = g;
      best = k;
    }
  }
  return raw_samples[best];
}

TEST_F(NsFixture, BlockedScanMatchesWholeMatrixScan) {
  for (const int samples : {1, 63, 64, 65, 2000}) {
    NearSamplingConfig cfg;
    cfg.num_samples = samples;
    cfg.delta_frac = 0.05;
    const Vec x_opt{0.45, 0.2, 0.7, 0.35};
    Rng rng_a(20), rng_b(20);
    const Vec blocked = near_sampling_candidate(problem, fom, *critic, scaler, x_opt, cfg, rng_a);
    const Vec whole = whole_matrix_candidate(problem, fom, *critic, scaler, x_opt, cfg, rng_b);
    ASSERT_EQ(blocked.size(), whole.size());
    for (std::size_t c = 0; c < blocked.size(); ++c)
      EXPECT_EQ(blocked[c], whole[c]) << samples << " samples, coordinate " << c;
    // Same draws consumed: the streams stay in step.
    EXPECT_EQ(rng_a.next(), rng_b.next()) << samples << " samples";
  }
}

}  // namespace
}  // namespace maopt::core
