// nn::Mlp, layer by layer and whole: a net with no hidden layer is one
// Linear layer (with a tanh on top when asked), and a hidden layer adds a
// ReLU.
#include "nn/mlp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "../support/mlp_reference.hpp"
#include "nn/adam.hpp"

namespace maopt::nn {
namespace {

using testing::mse_loss;
using testing::ReferenceNet;
using testing::zero_grad;

/// The (n x n) identity as a row-major W.
Vec identity(std::size_t n) {
  Vec w(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) w[i * n + i] = 1.0;
  return w;
}

// Central finite-difference check of a scalar loss L = sum(Y): the input
// gradient through the net's own backward() + input_gradient(), the
// parameter gradients through the whole-batch reference.
void check_gradients(Mlp& net, bool tanh_output, const Mat& x, double tol = 1e-6) {
  const std::size_t n = x.rows();
  Mlp::Rows rows;
  net.forward(rows, x);
  rows.output_grad().fill(1.0);  // dL/dY for L = sum(Y)
  net.pack();
  net.pack_input_columns(0, net.input_size());
  net.backward(rows, 0, n);
  Mat dx(n, net.input_size());
  net.input_gradient(rows, 0, n, dx.data().data());

  ReferenceNet reference(net, tanh_output);
  reference.forward(x);
  zero_grad(net);
  reference.backward_params(Mat(n, net.output_size(), 1.0));

  const double eps = 1e-6;
  auto loss = [&](const Mat& input) {
    Mlp::Rows probe;
    double s = 0.0;
    for (const double v : net.forward(probe, input).data()) s += v;
    return s;
  };

  // Input gradient.
  for (std::size_t i = 0; i < x.data().size(); ++i) {
    Mat xp = x, xm = x;
    xp.data()[i] += eps;
    xm.data()[i] -= eps;
    const double num = (loss(xp) - loss(xm)) / (2 * eps);
    EXPECT_NEAR(dx.data()[i], num, tol) << "input grad " << i;
  }

  // Parameter gradients.
  for (const auto& p : net.params()) {
    for (std::size_t i = 0; i < p.value->size(); ++i) {
      const double saved = (*p.value)[i];
      (*p.value)[i] = saved + eps;
      const double lp = loss(x);
      (*p.value)[i] = saved - eps;
      const double lm = loss(x);
      (*p.value)[i] = saved;
      EXPECT_NEAR((*p.grad)[i], (lp - lm) / (2 * eps), tol) << "param grad " << i;
    }
  }
}

TEST(Linear, ForwardKnownValues) {
  Rng rng(0);
  Mlp lin(2, {}, 1, rng, /*tanh_output=*/false);
  *lin.params()[0].value = {2.0, 3.0};  // w[in*out]: in=2, out=1
  *lin.params()[1].value = {1.0};
  Mlp::Rows rows;
  const Mat& y = lin.forward(rows, Mat(1, 2, {4.0, 5.0}));
  EXPECT_DOUBLE_EQ(y(0, 0), 1.0 + 2.0 * 4.0 + 3.0 * 5.0);
}

TEST(Linear, GradientCheck) {
  Rng rng(1);
  Mlp lin(3, {}, 4, rng, /*tanh_output=*/false);
  Mat x(5, 3);
  Rng xr(2);
  for (auto& v : x.data()) v = xr.uniform(-1, 1);
  check_gradients(lin, false, x);
}

TEST(Linear, XavierInitWithinLimit) {
  Rng rng(3);
  Mlp lin(10, {}, 10, rng, /*tanh_output=*/false);
  const double limit = std::sqrt(6.0 / 20.0);
  for (const double w : *lin.params()[0].value) {
    EXPECT_LE(std::abs(w), limit);
  }
  for (const double b : *lin.params()[1].value) EXPECT_DOUBLE_EQ(b, 0.0);
}

TEST(Linear, ForwardWrongFeatureCountThrows) {
  Rng rng(0);
  Mlp lin(3, {}, 2, rng, /*tanh_output=*/false);
  Mlp::Rows rows;
  EXPECT_THROW(lin.forward(rows, Mat(1, 4)), std::invalid_argument);
}

TEST(Tanh, ForwardMatchesStdTanh) {
  Rng rng(0);
  Mlp t(3, {}, 3, rng, /*tanh_output=*/true);
  *t.params()[0].value = identity(3);
  Mlp::Rows rows;
  const Mat& y = t.forward(rows, Mat(1, 3, {-1.0, 0.0, 2.0}));
  EXPECT_DOUBLE_EQ(y(0, 0), std::tanh(-1.0));
  EXPECT_DOUBLE_EQ(y(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(y(0, 2), std::tanh(2.0));
}

TEST(Tanh, GradientCheck) {
  Rng rng(4);
  Mlp t(4, {}, 4, rng, /*tanh_output=*/true);
  Mat x(3, 4);
  Rng xr(5);
  for (auto& v : x.data()) v = xr.uniform(-2, 2);
  check_gradients(t, true, x);
}

TEST(Relu, ForwardClampsNegatives) {
  Rng rng(0);
  Mlp r(3, {3}, 3, rng, /*tanh_output=*/false);
  *r.params()[0].value = identity(3);
  *r.params()[2].value = identity(3);
  Mlp::Rows rows;
  const Mat& y = r.forward(rows, Mat(1, 3, {-1.0, 0.0, 2.0}));
  EXPECT_DOUBLE_EQ(y(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(y(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(y(0, 2), 2.0);
}

TEST(Relu, GradientCheckAwayFromKink) {
  // The hidden layer passes its input through unchanged, so the ReLU sees
  // x itself; keep x away from 0, where the subgradient is ambiguous.
  Rng rng(6);
  Mlp r(4, {4}, 4, rng, /*tanh_output=*/false);
  *r.params()[0].value = identity(4);
  Mat x(3, 4);
  Rng xr(6);
  for (auto& v : x.data()) {
    v = xr.uniform(-2, 2);
    if (std::abs(v) < 0.1) v = v < 0 ? -0.1 : 0.1;
  }
  check_gradients(r, false, x);
}

TEST(Mlp, ShapesPropagate) {
  Rng rng(0);
  Mlp net(3, {8, 8}, 2, rng, /*tanh_output=*/false);
  EXPECT_EQ(net.input_size(), 3u);
  EXPECT_EQ(net.output_size(), 2u);
  Mlp::Rows rows;
  const Mat& y = net.forward(rows, Mat(5, 3, 0.1));
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 2u);
}

TEST(Mlp, PaperNetHasTwoHiddenHundredUnitLayers) {
  Rng rng(0);
  Mlp net(16, {100, 100}, 9, rng, /*tanh_output=*/false);
  // 16*100+100 + 100*100+100 + 100*9+9 parameters
  EXPECT_EQ(net.num_parameters(), 16u * 100 + 100 + 100 * 100 + 100 + 100 * 9 + 9);
}

TEST(Mlp, FullGradientCheck) {
  // A ReLU hidden layer under a tanh output, as in the actors.
  Rng rng(1);
  Mlp net(2, {5}, 2, rng, /*tanh_output=*/true);
  Mat x(3, 2);
  Rng xr(2);
  for (auto& v : x.data()) v = xr.uniform(-1, 1);
  check_gradients(net, true, x);
}

TEST(Mlp, InputGradientLeavesParamGradsUntouched) {
  Rng rng(3);
  Mlp net(2, {4}, 1, rng, /*tanh_output=*/false);
  Mlp::Rows rows;
  net.forward(rows, Mat(2, 2, 0.3));
  zero_grad(net);
  rows.output_grad().fill(1.0);
  net.pack();
  net.pack_input_columns(0, 2);
  net.backward(rows, 0, 2);
  Mat dx(2, 2);
  net.input_gradient(rows, 0, 2, dx.data().data());
  for (const auto& p : net.params())
    for (const double g : *p.grad) EXPECT_DOUBLE_EQ(g, 0.0);
}

TEST(Mlp, InputGradientMatchesBackward) {
  // Row chunks and a column range of the input gradient reproduce the
  // whole-batch reference's per-layer backward, bit for bit.
  Rng rng(4);
  Mlp net(3, {6}, 2, rng, /*tanh_output=*/false);
  Mat x(37, 3), dy(37, 2);
  Rng xr(5);
  for (auto& v : x.data()) v = xr.uniform(-1, 1);
  for (auto& v : dy.data()) v = xr.uniform(-1, 1);
  ReferenceNet reference(net, /*tanh_output=*/false);
  reference.forward(x);
  const Mat expected = reference.input_gradient(dy);

  Mlp::Rows rows;
  net.set_rows(rows, x.rows());
  rows.output_grad() = dy;
  net.pack();
  net.pack_input_columns(1, 3);
  Mat dx(x.rows(), 2);
  for (std::size_t r0 = 0; r0 < x.rows(); r0 += Mlp::kRowsPerChunk) {
    const std::size_t nr = std::min(x.rows() - r0, Mlp::kRowsPerChunk);
    net.forward(rows, x.data().data() + r0 * 3, r0, nr);
    net.backward(rows, r0, nr);
    net.input_gradient(rows, r0, nr, dx.data().data() + r0 * 2);
  }
  for (std::size_t r = 0; r < x.rows(); ++r)
    for (std::size_t c = 0; c < 2; ++c) EXPECT_EQ(dx(r, c), expected(r, 1 + c)) << r << " " << c;
}

TEST(Mlp, CopyIsDeepAndEquivalent) {
  Rng rng(5);
  Mlp net(2, {4}, 1, rng, /*tanh_output=*/false);
  Mlp copy = net;
  Mlp::Rows rows;
  const Mat x(1, 2, 0.5);
  const double y1 = net.forward(rows, x)(0, 0);
  EXPECT_DOUBLE_EQ(copy.forward(rows, x)(0, 0), y1);
  // Mutate the copy; the original must not change.
  copy.params()[0].value->at(0) += 1.0;
  EXPECT_DOUBLE_EQ(net.forward(rows, x)(0, 0), y1);
}

TEST(Mlp, OutputTanhBoundsOutputs) {
  Rng rng(6);
  Mlp net(2, {8}, 3, rng, /*tanh_output=*/true);
  Mat x(10, 2);
  Rng xr(7);
  for (auto& v : x.data()) v = xr.uniform(-10, 10);
  Mlp::Rows rows;
  for (const double v : net.forward(rows, x).data()) {
    EXPECT_GE(v, -1.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(Mlp, LearnsSineFunction) {
  // ReLU hidden layers, as in the paper's nets, trained by the whole-batch
  // reference loop.
  Rng rng(8);
  Mlp net(1, {32, 32}, 1, rng, /*tanh_output=*/false);
  ReferenceNet pass(net, /*tanh_output=*/false);
  Adam opt(net.params(), {.lr = 5e-3});
  Rng data_rng(9);
  Mat x(64, 1), y(64, 1), grad;
  double final_loss = 1.0;
  for (int step = 0; step < 800; ++step) {
    for (std::size_t i = 0; i < 64; ++i) {
      x(i, 0) = data_rng.uniform(-2.0, 2.0);
      y(i, 0) = std::sin(x(i, 0));
    }
    final_loss = mse_loss(pass.forward(x), y, &grad);
    pass.backward_params(grad);
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
