// Whole-batch reference passes for the network tests: plain whole-matrix
// gemm_nn / gemm_tn / gemm_nt passes, layer by layer, over an nn::Mlp's
// params(), with the mean-squared-error loss and the critic ensemble's
// prediction and action gradient on top. The row-chunked passes of nn::Mlp
// (core/critic's training round, core/actor's lockstep round) replaced
// these on the hot path; PoolLessRoundMatchesWholeBatchReference and
// LockstepRoundMatchesPerActorReferenceBitwise hold them to this code bit
// for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "core/critic.hpp"
#include "linalg/gemm.hpp"
#include "nn/mlp.hpp"

namespace maopt::nn::testing {

/// Mean-squared-error over all entries; fills dL/dY_pred into `grad`.
inline double mse_loss(const Mat& pred, const Mat& target, Mat* grad) {
  MAOPT_CHECK(pred.rows() == target.rows() && pred.cols() == target.cols(),
              "mse_loss: shape mismatch");
  MAOPT_CHECK(!pred.empty(), "mse_loss: empty prediction");
  const double n = static_cast<double>(pred.data().size());
  double loss = 0.0;
  if (grad) grad->ensure_shape(pred.rows(), pred.cols());  // every entry written below
  for (std::size_t i = 0; i < pred.data().size(); ++i) {
    const double d = pred.data()[i] - target.data()[i];
    loss += d * d;
    if (grad) grad->data()[i] = 2.0 * d / n;
  }
  return loss / n;
}

/// Zeroes every parameter gradient of `net`.
inline void zero_grad(Mlp& net) {
  for (const auto& p : net.params()) p.grad->assign(p.grad->size(), 0.0);
}

/// Whole-batch forward and backward passes of an Mlp (ReLU hidden layers, a
/// linear or tanh output) over its params(). Moving the net keeps this
/// valid, as it does an Adam over the same params().
class ReferenceNet {
 public:
  ReferenceNet(Mlp& net, bool tanh_output)
      : params_(net.params()), tanh_output_(tanh_output), act_(params_.size() / 2) {}

  /// Every layer's output for the rows of `x`; returns the net's output.
  /// `x` must stay alive, unchanged, until the backward call that follows.
  const Mat& forward(const Mat& x) {
    x_ = &x;
    const Mat* in = &x;
    for (std::size_t l = 0; l < act_.size(); ++l) {
      const Vec& w = *params_[2 * l].value;
      const Vec& b = *params_[2 * l + 1].value;
      const std::size_t out = b.size();
      MAOPT_CHECK(in->cols() * out == w.size(), "ReferenceNet::forward: feature size mismatch");
      Mat& y = act_[l];
      y.ensure_shape(in->rows(), out);
      for (std::size_t r = 0; r < y.rows(); ++r) std::copy(b.begin(), b.end(), y.row(r).begin());
      linalg::gemm_nn(in->rows(), out, in->cols(), in->data().data(), w.data(), y.data().data());
      for (double& v : y.data()) {
        if (l + 1 < act_.size())
          v = v > 0.0 ? v : 0.0;
        else if (tanh_output_)
          v = std::tanh(v);
      }
      in = &y;
    }
    return act_.back();
  }

  /// Accumulates every parameter gradient for dL/d(output) `dy`, after
  /// forward(). The bottom layer forms no input gradient.
  void backward_params(const Mat& dy) { chain(dy, /*params=*/true, /*input=*/false); }
  /// dL/d(input) for dL/d(output) `dy`, after forward(); parameter
  /// gradients are left alone.
  const Mat& input_gradient(const Mat& dy) {
    chain(dy, /*params=*/false, /*input=*/true);
    return g_;
  }

 private:
  void chain(const Mat& dy, bool params, bool input) {
    g_ = dy;
    if (tanh_output_) {
      const Mat& y = act_.back();
      for (std::size_t i = 0; i < g_.data().size(); ++i)
        g_.data()[i] *= 1.0 - y.data()[i] * y.data()[i];
    }
    for (std::size_t l = act_.size(); l-- > 0;) {
      const Mat& x = l == 0 ? *x_ : act_[l - 1];
      const Vec& w = *params_[2 * l].value;
      const std::size_t n = g_.rows(), in = x.cols(), out = g_.cols();
      if (params) {
        Vec& db = *params_[2 * l + 1].grad;
        for (std::size_t r = 0; r < n; ++r)
          for (std::size_t j = 0; j < out; ++j) db[j] += g_(r, j);
        linalg::gemm_tn(in, out, n, x.data().data(), in, g_.data().data(),
                        params_[2 * l].grad->data());
      }
      if (l == 0 && !input) return;
      dx_.resize(n, in, 0.0);
      wt_.ensure_shape(out, in);
      linalg::gemm_nt(n, in, out, g_.data().data(), w.data(), dx_.data().data(),
                      wt_.data().data());
      if (l > 0)  // ReLU: the activation is positive exactly where its input was.
        for (std::size_t i = 0; i < dx_.data().size(); ++i)
          dx_.data()[i] = x.data()[i] > 0.0 ? dx_.data()[i] : 0.0;
      std::swap(g_, dx_);
    }
  }

  std::vector<ParamRef> params_;
  bool tanh_output_;
  const Mat* x_ = nullptr;
  std::vector<Mat> act_;
  Mat g_, dx_, wt_;
};

}  // namespace maopt::nn::testing

namespace maopt::core::testing {

/// `critic`'s mean prediction of raw metrics for the (x, dx) rows `x_dx`:
/// each member's whole-batch forward through its inverse z-score, summed in
/// member order.
inline void ensemble_predict(CriticEnsemble& critic, const nn::Mat& x_dx, nn::Mat& raw) {
  nn::Mat member_raw;
  for (std::size_t m = 0; m < critic.size(); ++m) {
    Critic& member = critic.member(m);
    nn::testing::ReferenceNet net(member.network(), /*tanh_output=*/false);
    member.normalizer().inverse_into(net.forward(x_dx), m == 0 ? raw : member_raw);
    if (m > 0)
      for (std::size_t k = 0; k < raw.data().size(); ++k) raw.data()[k] += member_raw.data()[k];
  }
  const double inv = 1.0 / static_cast<double>(critic.size());
  for (double& v : raw.data()) v *= inv;
}

/// dL/d(dx) of `critic`'s mean prediction at the (x, dx) rows `x_dx`, given
/// dL/d(raw metrics) `d_raw`: each member's whole-batch input gradient,
/// chained through its inverse z-score (raw = z std + mean, so dz = draw
/// std), at the dx columns, averaged in member order.
inline void ensemble_action_gradient(CriticEnsemble& critic, const nn::Mat& x_dx,
                                     const nn::Mat& d_raw, nn::Mat& d_action) {
  const std::size_t d = critic.dim();
  const std::size_t m1 = critic.num_metrics();
  const std::size_t n = x_dx.rows();
  MAOPT_CHECK(d_raw.rows() == n && d_raw.cols() == m1,
              "ensemble_action_gradient: gradient shape != (rows x num_metrics)");
  d_action.ensure_shape(n, d);
  nn::Mat dz(n, m1);
  for (std::size_t m = 0; m < critic.size(); ++m) {
    Critic& member = critic.member(m);
    nn::testing::ReferenceNet net(member.network(), /*tanh_output=*/false);
    net.forward(x_dx);
    const Vec& std = member.normalizer().std();
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < m1; ++c) dz(r, c) = d_raw(r, c) * std[c];
    const nn::Mat& dx = net.input_gradient(dz);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < d; ++c)
        d_action(r, c) = m == 0 ? dx(r, d + c) : d_action(r, c) + dx(r, d + c);
  }
  const double inv = 1.0 / static_cast<double>(critic.size());
  for (double& v : d_action.data()) v *= inv;
}

}  // namespace maopt::core::testing
