// Adam optimizer (Kingma & Ba) over a set of ParamRefs.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace maopt::nn {

struct AdamConfig {
  double lr = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
  double weight_decay = 0.0;  ///< decoupled (AdamW-style) if nonzero
};

/// The constants of one Adam step: the config plus the bias corrections
/// for that step's t, as reciprocals.
struct AdamStep {
  double beta1, one_minus_beta1, beta2, one_minus_beta2;
  double inv_bc1, inv_bc2;
  double lr, eps, wd;
};

class Adam {
 public:
  explicit Adam(std::vector<ParamRef> params, AdamConfig config = {});

  /// Applies one update from the accumulated gradients, then zeroes them:
  /// begin_step() followed by update() over every parameter.
  void step();

  /// Advances the step counter and returns that step's coefficients.
  AdamStep begin_step();
  /// Updates elements [lo, hi) of parameter `k` (in constructor order) with
  /// `step`, then zeroes their gradients. Elements are independent, so
  /// disjoint ranges may be updated concurrently, and any split of a
  /// parameter into ranges gives the same bits as one whole update.
  void update(const AdamStep& step, std::size_t k, std::size_t lo, std::size_t hi);

  void set_learning_rate(double lr) { config_.lr = lr; }
  double learning_rate() const { return config_.lr; }

 private:
  std::vector<ParamRef> params_;
  AdamConfig config_;
  std::vector<Vec> m_, v_;
  long t_ = 0;
};

}  // namespace maopt::nn
