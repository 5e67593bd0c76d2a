#include "nn/layer.hpp"

#include <cmath>

#include "common/check.hpp"
#include "linalg/gemm.hpp"

namespace maopt::nn {

Linear::Linear(std::size_t in, std::size_t out, Rng& rng)
    : in_(in), out_(out), w_(in * out), b_(out, 0.0), dw_(in * out, 0.0), db_(out, 0.0) {
  MAOPT_CHECK(in > 0 && out > 0, "Linear: zero-sized layer");
  const double limit = std::sqrt(6.0 / static_cast<double>(in + out));
  for (auto& w : w_) w = rng.uniform(-limit, limit);
}

const Mat& Linear::forward(const Mat& x) {
  MAOPT_CHECK(x.cols() == in_, "Linear::forward: feature size mismatch");
  last_x_ = &x;  // borrowed: callers keep the input alive until backward
  last_x_gen_ = x.generation();
  Mat& y = ws_.acquire(kFwdSlot, x.rows(), out_);
  for (std::size_t r = 0; r < y.rows(); ++r) {
    auto yrow = y.row(r);
    for (std::size_t j = 0; j < out_; ++j) yrow[j] = b_[j];
  }
  linalg::gemm_nn(x.rows(), out_, in_, x.data().data(), w_.data(), y.data().data());
  return y;
}

void Linear::check_backward_input(const Mat& dy, const char* who) const {
  MAOPT_CHECK(last_x_ != nullptr, std::string(who) + ": backward before forward");
  MAOPT_CHECK(dy.rows() == last_x_->rows() && dy.cols() == out_,
              std::string(who) + ": shape mismatch");
  // Borrow guard: the forward input must not have been reshaped (its
  // contents made unspecified) between forward() and this read.
  MAOPT_DCHECK(last_x_->generation() == last_x_gen_,
               "Linear: borrowed forward input was invalidated before backward");
}

const Mat& Linear::backward(const Mat& dy) {
  param_gradient(dy);
  return input_gradient_into(dy);
}

void Linear::param_gradient(const Mat& dy) {
  check_backward_input(dy, "Linear::backward");
  for (std::size_t r = 0; r < dy.rows(); ++r) {
    const auto dyrow = dy.row(r);
    for (std::size_t j = 0; j < out_; ++j) db_[j] += dyrow[j];
  }
  // dW += X^T dY
  linalg::gemm_tn(in_, out_, dy.rows(), last_x_->data().data(), in_, dy.data().data(),
                  dw_.data());
}

const Mat& Linear::input_gradient(const Mat& dy) {
  check_backward_input(dy, "Linear::input_gradient");
  return input_gradient_into(dy);
}

const Mat& Linear::input_gradient_into(const Mat& dy) {
  // dX = dY W^T; the kernel packs W^T (out x in) into its own slot.
  Mat& dx = ws_.acquire(kBwdSlot, dy.rows(), in_);
  Mat& wt = ws_.acquire(kPackSlot, out_, in_);
  dx.fill(0.0);
  linalg::gemm_nt(dy.rows(), in_, out_, dy.data().data(), w_.data(), dx.data().data(),
                  wt.data().data());
  return dx;
}

std::vector<ParamRef> Linear::params() {
  return {{&w_, &dw_}, {&b_, &db_}};
}

std::vector<ConstParamRef> Linear::params() const {
  return {{&w_, &dw_}, {&b_, &db_}};
}

std::unique_ptr<Layer> Linear::clone() const {
  // Bypass the rng-initializing constructor, then copy the weights.
  Rng dummy(0);
  auto copy = std::make_unique<Linear>(in_, out_, dummy);
  copy->w_ = w_;
  copy->b_ = b_;
  return copy;
}

const Mat& Tanh::forward(const Mat& x) {
  MAOPT_CHECK(x.cols() == size_, "Tanh::forward: feature size mismatch");
  Mat& y = ws_.acquire(kFwdSlot, x.rows(), x.cols());
  const auto& xv = x.data();
  auto& yv = y.data();
  for (std::size_t i = 0; i < xv.size(); ++i) yv[i] = std::tanh(xv[i]);
  return y;
}

const Mat& Tanh::backward(const Mat& dy) {
  // The cached forward output doubles as the derivative source: 1 - y^2.
  // peek() verifies the cached shape matches dy instead of re-acquiring
  // (which would mark the cached values unspecified).
  const Mat& y = ws_.peek(kFwdSlot, dy.rows(), dy.cols());
  Mat& dx = ws_.acquire(kBwdSlot, dy.rows(), dy.cols());
  const auto& yv = y.data();
  const auto& dyv = dy.data();
  auto& dv = dx.data();
  for (std::size_t i = 0; i < dv.size(); ++i) dv[i] = dyv[i] * (1.0 - yv[i] * yv[i]);
  return dx;
}

const Mat& Relu::forward(const Mat& x) {
  MAOPT_CHECK(x.cols() == size_, "Relu::forward: feature size mismatch");
  Mat& y = ws_.acquire(kFwdSlot, x.rows(), x.cols());
  const auto& xv = x.data();
  auto& yv = y.data();
  for (std::size_t i = 0; i < xv.size(); ++i) yv[i] = xv[i] > 0.0 ? xv[i] : 0.0;
  return y;
}

const Mat& Relu::backward(const Mat& dy) {
  // y > 0 <=> x > 0, so the forward output is its own activation mask.
  const Mat& y = ws_.peek(kFwdSlot, dy.rows(), dy.cols());
  Mat& dx = ws_.acquire(kBwdSlot, dy.rows(), dy.cols());
  const auto& yv = y.data();
  const auto& dyv = dy.data();
  auto& dv = dx.data();
  for (std::size_t i = 0; i < dv.size(); ++i) dv[i] = yv[i] > 0.0 ? dyv[i] : 0.0;
  return dx;
}

}  // namespace maopt::nn
