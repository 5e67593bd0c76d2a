#include "nn/adam.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace maopt::nn {
namespace {

TEST(Adam, MinimizesQuadratic) {
  Vec x{5.0, -3.0};
  Vec g(2, 0.0);
  Adam opt({{&x, &g}}, {.lr = 0.1});
  for (int i = 0; i < 500; ++i) {
    g[0] = 2.0 * x[0];
    g[1] = 2.0 * x[1];
    opt.step();
  }
  EXPECT_NEAR(x[0], 0.0, 1e-3);
  EXPECT_NEAR(x[1], 0.0, 1e-3);
}

TEST(Adam, StepZeroesGradients) {
  Vec x{1.0};
  Vec g{0.5};
  Adam opt({{&x, &g}}, AdamConfig{});
  opt.step();
  EXPECT_DOUBLE_EQ(g[0], 0.0);
}

TEST(Adam, FirstStepMagnitudeIsLearningRate) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  Vec x{0.0};
  Vec g{0.3};
  Adam opt({{&x, &g}}, {.lr = 0.01});
  opt.step();
  EXPECT_NEAR(x[0], -0.01, 1e-6);
}

TEST(Adam, WeightDecayShrinksParameters) {
  Vec x{1.0};
  Vec g{0.0};
  Adam opt({{&x, &g}}, {.lr = 0.1, .weight_decay = 0.5});
  opt.step();
  EXPECT_LT(x[0], 1.0);
}

TEST(Adam, HandlesMultipleParameterGroups) {
  Vec a{2.0}, b{-2.0};
  Vec ga(1, 0.0), gb(1, 0.0);
  Adam opt({{&a, &ga}, {&b, &gb}}, {.lr = 0.05});
  for (int i = 0; i < 400; ++i) {
    ga[0] = 2.0 * (a[0] - 1.0);
    gb[0] = 2.0 * (b[0] + 1.0);
    opt.step();
  }
  EXPECT_NEAR(a[0], 1.0, 1e-2);
  EXPECT_NEAR(b[0], -1.0, 1e-2);
}

TEST(Adam, SetLearningRate) {
  Vec x{0.0};
  Vec g{1.0};
  Adam opt({{&x, &g}}, {.lr = 0.01});
  opt.set_learning_rate(0.5);
  EXPECT_DOUBLE_EQ(opt.learning_rate(), 0.5);
  opt.step();
  EXPECT_NEAR(x[0], -0.5, 1e-6);
}

TEST(Adam, RangedUpdatesMatchWholeStepBitwise) {
  // Any split of each parameter into ranges, updated in any order, must give
  // the bits of one whole step() (the critic updates row blocks concurrently).
  Rng rng(3);
  Vec wa(37), wb(10), ga(37), gb(10);
  for (auto& v : wa) v = rng.uniform(-1.0, 1.0);
  for (auto& v : wb) v = rng.uniform(-1.0, 1.0);
  Vec wa2 = wa, wb2 = wb, ga2(37), gb2(10);
  Adam whole({{&wa, &ga}, {&wb, &gb}}, {.lr = 0.01, .weight_decay = 0.1});
  Adam ranged({{&wa2, &ga2}, {&wb2, &gb2}}, {.lr = 0.01, .weight_decay = 0.1});
  for (int step = 0; step < 20; ++step) {
    for (std::size_t i = 0; i < ga.size(); ++i) ga[i] = ga2[i] = rng.uniform(-2.0, 2.0);
    for (std::size_t i = 0; i < gb.size(); ++i) gb[i] = gb2[i] = rng.uniform(-2.0, 2.0);
    whole.step();
    const AdamStep s = ranged.begin_step();
    ranged.update(s, 1, 0, 10);
    ranged.update(s, 0, 30, 37);
    ranged.update(s, 0, 0, 1);
    ranged.update(s, 0, 1, 30);
    for (std::size_t i = 0; i < wa.size(); ++i) ASSERT_EQ(wa[i], wa2[i]) << step << " a" << i;
    for (std::size_t i = 0; i < wb.size(); ++i) ASSERT_EQ(wb[i], wb2[i]) << step << " b" << i;
    for (const double g : ga2) ASSERT_EQ(g, 0.0);
  }
}

}  // namespace
}  // namespace maopt::nn
