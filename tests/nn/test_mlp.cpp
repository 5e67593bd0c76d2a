#include "nn/mlp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "../support/mlp_reference.hpp"
#include "nn/adam.hpp"

namespace maopt::nn {
namespace {

using testing::mse_loss;
using testing::zero_grad;

TEST(Mlp, ShapesPropagate) {
  Rng rng(0);
  Mlp net(3, {8, 8}, 2, rng);
  EXPECT_EQ(net.input_size(), 3u);
  EXPECT_EQ(net.output_size(), 2u);
  Mat x(5, 3, 0.1);
  const Mat y = net.forward(x);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 2u);
}

TEST(Mlp, PaperNetHasTwoHiddenHundredUnitLayers) {
  Rng rng(0);
  Mlp net = Mlp::make_paper_net(16, 9, rng, false);
  // 16*100+100 + 100*100+100 + 100*9+9 parameters
  EXPECT_EQ(net.num_parameters(), 16u * 100 + 100 + 100 * 100 + 100 + 100 * 9 + 9);
}

TEST(Mlp, ConstParamsViewMatchesMutableParams) {
  Rng rng(3);
  Mlp net(4, {8, 8}, 2, rng);
  const Mlp& cnet = net;
  const auto mut = net.params();
  const auto ro = cnet.params();
  ASSERT_EQ(mut.size(), ro.size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < mut.size(); ++i) {
    EXPECT_EQ(ro[i].value, mut[i].value);  // same underlying storage
    EXPECT_EQ(ro[i].grad, mut[i].grad);
    total += ro[i].value->size();
  }
  EXPECT_EQ(cnet.num_parameters(), total);
}

TEST(Mlp, FullGradientCheck) {
  Rng rng(1);
  Mlp net(2, {5}, 2, rng, Activation::Tanh, false);
  Mat x(3, 2);
  Rng xr(2);
  for (auto& v : x.data()) v = xr.uniform(-1, 1);

  Mat y = net.forward(x);
  Mat dy(y.rows(), y.cols(), 1.0);
  zero_grad(net);
  net.backward_params(dy);
  const Mat dx = net.input_gradient(dy);

  auto loss = [&](const Mat& input) {
    const Mat out = net.forward(input);
    double s = 0.0;
    for (const double v : out.data()) s += v;
    return s;
  };
  const double eps = 1e-6;
  for (std::size_t i = 0; i < x.data().size(); ++i) {
    Mat xp = x, xm = x;
    xp.data()[i] += eps;
    xm.data()[i] -= eps;
    EXPECT_NEAR(dx.data()[i], (loss(xp) - loss(xm)) / (2 * eps), 1e-6);
  }
  for (const auto& p : net.params()) {
    for (std::size_t i = 0; i < p.value->size(); ++i) {
      const double saved = (*p.value)[i];
      (*p.value)[i] = saved + eps;
      const double lp = loss(x);
      (*p.value)[i] = saved - eps;
      const double lm = loss(x);
      (*p.value)[i] = saved;
      EXPECT_NEAR((*p.grad)[i], (lp - lm) / (2 * eps), 1e-6);
    }
  }
}

TEST(Mlp, InputGradientLeavesParamGradsUntouched) {
  Rng rng(3);
  Mlp net(2, {4}, 1, rng);
  Mat x(2, 2, 0.3);
  net.forward(x);
  zero_grad(net);
  Mat dy(2, 1, 1.0);
  net.input_gradient(dy);
  for (const auto& p : net.params())
    for (const double g : *p.grad) EXPECT_DOUBLE_EQ(g, 0.0);
}

TEST(Mlp, InputGradientMatchesBackward) {
  Rng rng(4);
  Mlp net(3, {6}, 2, rng);
  Mat x(2, 3, 0.2);
  Mat dy(2, 2, 0.7);
  net.forward(x);
  const Mat g1 = net.input_gradient(dy);

  // Reference: the same weights in a hand-built Linear-Relu-Linear stack,
  // differentiated by each layer's full backward().
  Rng other(99);
  Linear l1(3, 6, other), l2(6, 2, other);
  Relu relu(6);
  const auto p = net.params();
  l1.weights() = *p[0].value;
  l1.bias() = *p[1].value;
  l2.weights() = *p[2].value;
  l2.bias() = *p[3].value;
  l2.forward(relu.forward(l1.forward(x)));
  const Mat g2 = l1.backward(relu.backward(l2.backward(dy)));
  ASSERT_EQ(g1.data().size(), g2.data().size());
  for (std::size_t i = 0; i < g1.data().size(); ++i)
    EXPECT_DOUBLE_EQ(g1.data()[i], g2.data()[i]);
}

TEST(Mlp, CopyIsDeepAndEquivalent) {
  Rng rng(5);
  Mlp net(2, {4}, 1, rng);
  Mlp copy = net;
  Mat x(1, 2, 0.5);
  const Mat y1 = net.forward(x);
  const Mat y2 = copy.forward(x);
  EXPECT_DOUBLE_EQ(y1(0, 0), y2(0, 0));
  // Mutate the copy; the original must not change.
  copy.params()[0].value->at(0) += 1.0;
  const Mat y3 = net.forward(x);
  EXPECT_DOUBLE_EQ(y1(0, 0), y3(0, 0));
}

TEST(Mlp, OutputTanhBoundsOutputs) {
  Rng rng(6);
  Mlp net(2, {8}, 3, rng, Activation::Relu, /*output_tanh=*/true);
  Mat x(10, 2);
  Rng xr(7);
  for (auto& v : x.data()) v = xr.uniform(-10, 10);
  const Mat y = net.forward(x);
  for (const double v : y.data()) {
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Mlp, LearnsSineFunction) {
  Rng rng(8);
  Mlp net(1, {32, 32}, 1, rng, Activation::Tanh, false);
  Adam opt(net.params(), {.lr = 5e-3});
  Rng data_rng(9);
  Mat x(64, 1), y(64, 1), grad;
  double final_loss = 1.0;
  for (int step = 0; step < 800; ++step) {
    for (std::size_t i = 0; i < 64; ++i) {
      x(i, 0) = data_rng.uniform(-2.0, 2.0);
      y(i, 0) = std::sin(x(i, 0));
    }
    const Mat pred = net.forward(x);
    final_loss = mse_loss(pred, y, &grad);
    net.backward_params(grad);
    opt.step();
  }
  EXPECT_LT(final_loss, 1e-3);
}

TEST(MseLoss, KnownValueAndGradient) {
  Mat pred(1, 2, {1.0, 3.0});
  Mat target(1, 2, {0.0, 0.0});
  Mat grad;
  const double loss = mse_loss(pred, target, &grad);
  EXPECT_DOUBLE_EQ(loss, (1.0 + 9.0) / 2.0);
  EXPECT_DOUBLE_EQ(grad(0, 0), 2.0 * 1.0 / 2.0);
  EXPECT_DOUBLE_EQ(grad(0, 1), 2.0 * 3.0 / 2.0);
}

TEST(MseLoss, ShapeMismatchThrows) {
  Mat pred(1, 2), target(2, 1);
  EXPECT_THROW(mse_loss(pred, target, nullptr), std::invalid_argument);
}

}  // namespace
}  // namespace maopt::nn
