#include "nn/adam.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/thread_annotations.hpp"

namespace maopt::nn {

namespace {

// Same runtime dispatch as the GEMM kernels: the sqrt/divide chain here is
// the second-hottest loop in training, and the AVX2 clone retires it 4-wide.
// Cloning is disabled under sanitizers for the same reasons as in gemm.cpp.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && !defined(__AVX2__) && \
    !defined(MAOPT_NO_TARGET_CLONES) && !defined(__SANITIZE_ADDRESS__) &&                    \
    !defined(__SANITIZE_THREAD__)
__attribute__((target_clones("default", "arch=x86-64-v3")))
#endif
MAOPT_HOT void adam_update(double* value, double* grad, double* m, double* v, std::size_t size,
                 double beta1, double one_minus_beta1, double beta2, double one_minus_beta2,
                 double inv_bc1, double inv_bc2, double lr, double eps, double wd) {
  for (std::size_t i = 0; i < size; ++i) {
    const double g = grad[i];
    m[i] = beta1 * m[i] + one_minus_beta1 * g;
    v[i] = beta2 * v[i] + one_minus_beta2 * g * g;
    const double mhat = m[i] * inv_bc1;
    const double vhat = v[i] * inv_bc2;
    value[i] -= lr * (mhat / (std::sqrt(vhat) + eps) + wd * value[i]);
    grad[i] = 0.0;
  }
}

}  // namespace

Adam::Adam(std::vector<ParamRef> params, AdamConfig config)
    : params_(std::move(params)), config_(config) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    m_.emplace_back(p.value->size(), 0.0);
    v_.emplace_back(p.value->size(), 0.0);
  }
}

AdamStep Adam::begin_step() {
  ++t_;
  // Hoist the bias corrections as reciprocals: the update then costs one
  // sqrt and one division per parameter instead of one sqrt and three.
  return {.beta1 = config_.beta1,
          .one_minus_beta1 = 1.0 - config_.beta1,
          .beta2 = config_.beta2,
          .one_minus_beta2 = 1.0 - config_.beta2,
          .inv_bc1 = 1.0 / (1.0 - std::pow(config_.beta1, static_cast<double>(t_))),
          .inv_bc2 = 1.0 / (1.0 - std::pow(config_.beta2, static_cast<double>(t_))),
          .lr = config_.lr,
          .eps = config_.eps,
          .wd = config_.weight_decay};
}

MAOPT_HOT void Adam::update(const AdamStep& s, std::size_t k, std::size_t lo, std::size_t hi) {
  MAOPT_DCHECK(k < params_.size() && lo <= hi && hi <= params_[k].value->size(),
               "Adam::update: range outside the parameter");
  adam_update(params_[k].value->data() + lo, params_[k].grad->data() + lo, m_[k].data() + lo,
              v_[k].data() + lo, hi - lo, s.beta1, s.one_minus_beta1, s.beta2,
              s.one_minus_beta2, s.inv_bc1, s.inv_bc2, s.lr, s.eps, s.wd);
}

MAOPT_HOT void Adam::step() {
  const AdamStep s = begin_step();
  for (std::size_t k = 0; k < params_.size(); ++k) update(s, k, 0, params_[k].value->size());
}

}  // namespace maopt::nn
