#include "core/critic.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <thread>

#include "../support/mlp_reference.hpp"
#include "circuits/analytic_problems.hpp"
#include "nn/adam.hpp"

namespace maopt::core {
namespace {

/// Critic prediction for one (x, dx) pair in unit space.
Vec predict_one(Critic& critic, const Vec& x_unit, const Vec& dx_unit) {
  const std::size_t d = x_unit.size();
  nn::Mat in(1, 2 * d);
  for (std::size_t i = 0; i < d; ++i) {
    in(0, i) = x_unit[i];
    in(0, d + i) = dx_unit[i];
  }
  nn::Mat out;
  critic.predict_into(in, out);
  return Vec(out.row(0).begin(), out.row(0).end());
}

/// `critic`'s predicted raw metrics for the rows of `in`.
nn::Mat predict(Critic& critic, const nn::Mat& in) {
  nn::Mat raw;
  critic.predict_into(in, raw);
  return raw;
}

/// dL/d(dx) at the (x, dx) rows `in`, given dL/d(raw metrics) `dl`: the
/// inverse z-score's dz = draw * std, then the net's own backward() and
/// input_gradient() over the dx columns.
nn::Mat action_gradient(Critic& critic, const nn::Mat& in, const nn::Mat& dl) {
  const std::size_t d = critic.dim();
  const std::size_t n = in.rows();
  nn::Mlp& net = critic.network();
  nn::Mlp::Rows rows;
  net.forward(rows, in);
  const Vec& std = critic.normalizer().std();
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < critic.num_metrics(); ++c)
      rows.output_grad()(r, c) = dl(r, c) * std[c];
  net.pack();
  net.pack_input_columns(d, 2 * d);
  net.backward(rows, 0, n);
  nn::Mat da(n, d);
  net.input_gradient(rows, 0, n, da.data().data());
  return da;
}

struct CriticFixture : ::testing::Test {
  CriticFixture() : problem(3), scaler(problem.lower_bounds(), problem.upper_bounds()) {
    Rng rng(1);
    for (int i = 0; i < 60; ++i) {
      SimRecord r;
      r.x = problem.random_design(rng);
      r.metrics = problem.evaluate(r.x).metrics;
      r.simulation_ok = true;
      records.push_back(std::move(r));
    }
    config.hidden = {48, 48};
    config.steps_per_round = 40;
    config.batch_size = 32;
  }

  ckt::ConstrainedQuadratic problem;
  nn::RangeScaler scaler;
  std::vector<SimRecord> records;
  CriticConfig config;
};

TEST_F(CriticFixture, LossDecreasesOverTraining) {
  Rng rng(2);
  Critic critic(3, 3, config, rng);
  critic.fit_normalizer(records);
  PseudoSampleBatcher batcher(records, scaler);
  Rng train_rng(3);
  const double first = critic.train_round(batcher, train_rng);
  double last = first;
  for (int round = 0; round < 10; ++round) last = critic.train_round(batcher, train_rng);
  EXPECT_LT(last, first * 0.5);
}

TEST_F(CriticFixture, LearnsToPredictMetrics) {
  Rng rng(4);
  Critic critic(3, 3, config, rng);
  critic.fit_normalizer(records);
  PseudoSampleBatcher batcher(records, scaler);
  Rng train_rng(5);
  for (int round = 0; round < 30; ++round) critic.train_round(batcher, train_rng);

  // Evaluate on fresh pairs: predictions should correlate with truth.
  Rng test_rng(6);
  double err = 0.0, scale = 0.0;
  const int n_test = 40;
  for (int k = 0; k < n_test; ++k) {
    const Vec xi = problem.random_design(test_rng);
    const Vec xj = problem.random_design(test_rng);
    const Vec ui = scaler.to_unit(xi);
    const Vec uj = scaler.to_unit(xj);
    Vec du(3);
    for (int c = 0; c < 3; ++c) du[static_cast<std::size_t>(c)] = uj[static_cast<std::size_t>(c)] - ui[static_cast<std::size_t>(c)];
    const Vec pred = predict_one(critic, ui, du);
    const Vec truth = problem.evaluate(xj).metrics;
    for (std::size_t c = 0; c < 3; ++c) {
      err += std::abs(pred[c] - truth[c]);
      scale += std::abs(truth[c]);
    }
  }
  EXPECT_LT(err, 0.25 * scale);  // mean abs error under 25% of mean magnitude
}

TEST_F(CriticFixture, ActionGradientMatchesFiniteDifference) {
  Rng rng(9);
  Critic critic(3, 3, config, rng);
  critic.fit_normalizer(records);
  PseudoSampleBatcher batcher(records, scaler);
  Rng train_rng(10);
  for (int round = 0; round < 5; ++round) critic.train_round(batcher, train_rng);

  // Scalar loss L = sum_c w_c * raw_c; check dL/d(dx).
  const Vec w{0.3, -0.7, 1.1};
  nn::Mat in(1, 6);
  for (int c = 0; c < 3; ++c) {
    in(0, static_cast<std::size_t>(c)) = 0.1 * c;
    in(0, static_cast<std::size_t>(3 + c)) = 0.05 * (c + 1);
  }
  nn::Mat dl(1, 3);
  for (std::size_t c = 0; c < 3; ++c) dl(0, c) = w[c];
  const nn::Mat da = action_gradient(critic, in, dl);

  const double eps = 1e-6;
  for (std::size_t c = 0; c < 3; ++c) {
    nn::Mat inp = in, inm = in;
    inp(0, 3 + c) += eps;
    inm(0, 3 + c) -= eps;
    const nn::Mat rp = predict(critic, inp);
    const nn::Mat rm = predict(critic, inm);
    double lp = 0.0, lm = 0.0;
    for (std::size_t j = 0; j < 3; ++j) {
      lp += w[j] * rp(0, j);
      lm += w[j] * rm(0, j);
    }
    EXPECT_NEAR(da(0, c), (lp - lm) / (2 * eps), 1e-4) << c;
  }
}

TEST_F(CriticFixture, PredictOneMatchesBatchPredict) {
  // A one-row prediction (the actor scoring one state) equals the same row
  // of a batch prediction (near-sampling scoring many), bit for bit.
  Rng rng(11);
  Critic critic(3, 3, config, rng);
  critic.fit_normalizer(records);
  const Vec x(3, -0.3), dx(3, 0.2);
  const Vec single = predict_one(critic, x, dx);
  nn::Mat batch_in(5, 6);
  Rng fill(12);
  for (auto& v : batch_in.data()) v = fill.uniform(-1.0, 1.0);
  for (std::size_t c = 0; c < 3; ++c) {
    batch_in(2, c) = x[c];
    batch_in(2, 3 + c) = dx[c];
  }
  const nn::Mat batch = predict(critic, batch_in);
  for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(single[c], batch(2, c));
}

/// Every trainable value of `critic`, in parameter order.
std::vector<double> flat_parameters(Critic& critic) {
  std::vector<double> out;
  for (const auto& p : critic.network().params())
    out.insert(out.end(), p.value->begin(), p.value->end());
  return out;
}

void expect_same_bits(const std::vector<double>& a, const std::vector<double>& b,
                      const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << what << " parameter " << i;
}

struct PartitionCase {
  std::vector<std::size_t> hidden;
  std::size_t batch;
};

std::vector<PartitionCase> partition_cases() {
  std::vector<PartitionCase> cases;
  for (const auto& hidden : {std::vector<std::size_t>{100, 100}, std::vector<std::size_t>{7, 13}})
    for (const std::size_t batch : {64, 37, 5, 1}) cases.push_back({hidden, batch});
  return cases;
}

TEST_F(CriticFixture, PoolLessRoundMatchesWholeBatchReference) {
  // The partitioned round must reproduce the whole-batch forward /
  // backward_params / Adam::step loop it replaced, bit for bit — the
  // trajectories of earlier versions depend on it.
  const PseudoSampleBatcher batcher(records, scaler);
  for (const PartitionCase& c : partition_cases()) {
    CriticConfig cfg = config;
    cfg.hidden = c.hidden;
    cfg.batch_size = c.batch;
    cfg.steps_per_round = 7;
    Rng rng_a(8), rng_b(8);
    Critic critic(3, 3, cfg, rng_a);
    nn::Mlp net(6, cfg.hidden, 3, rng_b, /*tanh_output=*/false);
    nn::testing::ReferenceNet pass(net, /*tanh_output=*/false);
    nn::Adam adam(net.params(), {.lr = cfg.learning_rate});
    critic.fit_normalizer(records);
    nn::ZScoreNormalizer norm;
    nn::Mat metrics(records.size(), 3);
    for (std::size_t i = 0; i < records.size(); ++i)
      for (std::size_t j = 0; j < 3; ++j) metrics(i, j) = records[i].metrics[j];
    norm.fit(metrics);

    Rng trng_a(9), trng_b(9);
    nn::Mat x, y_raw, y, grad;
    for (int round = 0; round < 3; ++round) {
      const double loss = critic.train_round(batcher, trng_a);
      double total = 0.0;
      for (int s = 0; s < cfg.steps_per_round; ++s) {
        batcher.sample(cfg.batch_size, trng_b, x, y_raw);
        norm.transform_into(y_raw, y);
        total += nn::testing::mse_loss(pass.forward(x), y, &grad);
        pass.backward_params(grad);
        adam.step();
      }
      const double ref_loss = total / cfg.steps_per_round;
      const std::string what = "hidden " + std::to_string(c.hidden[0]) + " batch " +
                               std::to_string(c.batch) + " round " + std::to_string(round);
      ASSERT_EQ(loss, ref_loss) << what;
      std::vector<double> ref;
      for (const auto& p : net.params()) ref.insert(ref.end(), p.value->begin(), p.value->end());
      expect_same_bits(flat_parameters(critic), ref, what);
    }
  }
}

TEST_F(CriticFixture, PooledRoundMatchesPoolLessRoundBitwise) {
  const PseudoSampleBatcher batcher(records, scaler);
  for (const PartitionCase& c : partition_cases()) {
    CriticConfig cfg = config;
    cfg.hidden = c.hidden;
    cfg.batch_size = c.batch;
    cfg.steps_per_round = 6;
    // Pool-less reference: 5 rounds' losses and final parameters.
    Rng rng_ref(10), trng_ref(11);
    Critic reference(3, 3, cfg, rng_ref);
    reference.fit_normalizer(records);
    std::vector<double> ref_losses;
    for (int round = 0; round < 5; ++round)
      ref_losses.push_back(reference.train_round(batcher, trng_ref));
    const std::vector<double> ref_params = flat_parameters(reference);

    for (const std::size_t workers : {1, 2, 3, 7}) {
      ThreadPool pool(workers);
      Rng rng(10), trng(11);
      Critic critic(3, 3, cfg, rng);
      critic.fit_normalizer(records);
      const std::string what = "hidden " + std::to_string(c.hidden[0]) + " batch " +
                               std::to_string(c.batch) + " workers " + std::to_string(workers);
      for (int round = 0; round < 5; ++round)
        ASSERT_EQ(critic.train_round(batcher, trng, &pool), ref_losses[round])
            << what << " round " << round;
      expect_same_bits(flat_parameters(critic), ref_params, what);
    }
  }
}

TEST_F(CriticFixture, LateWorkersGiveTheSameBits) {
  // Helpers that start after the caller has run some (or all) of the round's
  // chunks must neither change the result nor hold the round up.
  const PseudoSampleBatcher batcher(records, scaler);
  CriticConfig cfg = config;
  cfg.hidden = {100, 100};
  cfg.batch_size = 64;
  cfg.steps_per_round = 5;
  Rng rng_ref(12), trng_ref(13), rng(12), trng(13);
  Critic reference(3, 3, cfg, rng_ref), critic(3, 3, cfg, rng);
  reference.fit_normalizer(records);
  critic.fit_normalizer(records);
  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    // Occupy some workers so their helper tasks queue behind a sleep.
    for (int w = 0; w <= round % 3; ++w)
      pool.submit([] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); });
    ASSERT_EQ(critic.train_round(batcher, trng, &pool), reference.train_round(batcher, trng_ref))
        << "round " << round;
  }
  expect_same_bits(flat_parameters(critic), flat_parameters(reference), "late workers");
}

}  // namespace
}  // namespace maopt::core
