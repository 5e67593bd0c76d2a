// Parameterized training-behaviour sweeps: the optimizer stack must train
// reliably across the learning rates and widths the experiments use.
#include <gtest/gtest.h>

#include <cmath>

#include "../support/mlp_reference.hpp"
#include "nn/adam.hpp"

namespace maopt::nn {
namespace {

using testing::mse_loss;

class AdamLrSweep : public ::testing::TestWithParam<double> {};

TEST_P(AdamLrSweep, ConvergesOnConvexBowl) {
  const double lr = GetParam();
  Vec x{4.0, -2.0, 1.0};
  Vec g(3, 0.0);
  Adam opt({{&x, &g}}, {.lr = lr});
  for (int i = 0; i < 20000; ++i) {
    for (std::size_t j = 0; j < 3; ++j) g[j] = 2.0 * x[j];
    opt.step();
  }
  for (const double v : x) EXPECT_NEAR(v, 0.0, 0.02) << "lr=" << lr;
}

INSTANTIATE_TEST_SUITE_P(LearningRates, AdamLrSweep,
                         ::testing::Values(3e-4, 1e-3, 3e-3, 1e-2, 3e-2));

struct WidthCase {
  std::size_t width;
  double target_loss;
};

class MlpWidthSweep : public ::testing::TestWithParam<WidthCase> {};

TEST_P(MlpWidthSweep, FitsQuadraticMap) {
  const auto [width, target_loss] = GetParam();
  Rng rng(width);
  Mlp net(2, {width, width}, 1, rng, Activation::Relu, false);
  Adam opt(net.params(), {.lr = 3e-3});
  Rng data(7);
  Mat x(48, 2), y(48, 1), grad;
  double loss = 1e9;
  for (int step = 0; step < 600; ++step) {
    for (std::size_t i = 0; i < 48; ++i) {
      x(i, 0) = data.uniform(-1, 1);
      x(i, 1) = data.uniform(-1, 1);
      y(i, 0) = x(i, 0) * x(i, 0) + 0.5 * x(i, 1);
    }
    const Mat pred = net.forward(x);
    loss = mse_loss(pred, y, &grad);
    net.backward_params(grad);
    opt.step();
  }
  EXPECT_LT(loss, target_loss) << "width=" << width;
}

INSTANTIATE_TEST_SUITE_P(Widths, MlpWidthSweep,
                         ::testing::Values(WidthCase{16, 2e-2}, WidthCase{32, 1e-2},
                                           WidthCase{64, 5e-3}, WidthCase{100, 5e-3}));

TEST(TrainingProperties, DeeperTanhNetStillHasHealthyGradients) {
  // 4 hidden layers of tanh: gradient magnitudes at the input layer must be
  // nonzero after a forward/backward pass (no catastrophic vanishing for
  // the depths used here).
  Rng rng(1);
  Mlp net(4, {32, 32, 32, 32}, 1, rng, Activation::Tanh, false);
  Mat x(16, 4, 0.25);
  Mat dy(16, 1, 1.0);
  net.forward(x);
  testing::zero_grad(net);
  net.backward_params(dy);
  double grad_norm = 0.0;
  const auto params = net.params();
  for (const double g : *params[0].grad) grad_norm += g * g;
  EXPECT_GT(std::sqrt(grad_norm), 1e-6);
}

}  // namespace
}  // namespace maopt::nn
