// Whole-batch training reference for the MLP tests: the mean-squared-error
// loss and gradient reset that the partitioned critic round (core/critic)
// replaced on the hot path. PoolLessRoundMatchesWholeBatchReference holds
// that round to this loop bit for bit.
#pragma once

#include "common/check.hpp"
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

}  // namespace maopt::nn::testing
