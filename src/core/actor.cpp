#include "core/actor.hpp"

#include <cmath>
#include <cstdint>

#include "common/check.hpp"
#include "common/thread_annotations.hpp"

namespace maopt::core {

Actor::Actor(std::size_t dim, const ActorConfig& config, Rng& rng)
    : dim_(dim),
      config_(config),
      mlp_(dim, config.hidden, dim, rng, nn::Activation::Relu, /*output_tanh=*/true),
      adam_(mlp_.params(), {.lr = config.learning_rate}),
      viol_(dim, 0.0),
      sign_(dim, 0.0) {}

MAOPT_HOT const nn::Mat& Actor::act_and_predict(Surrogate& critic) {
  const nn::Mat& actions = mlp_.forward(states_);
  critic_in_.ensure_shape(states_.rows(), 2 * dim_);
  for (std::size_t k = 0; k < states_.rows(); ++k)
    for (std::size_t c = 0; c < dim_; ++c) {
      critic_in_(k, c) = states_(k, c);
      critic_in_(k, dim_ + c) = actions(k, c);
    }
  critic.predict_into(critic_in_, raw_);
  return actions;
}

MAOPT_HOT double Actor::train_round(Surrogate& critic, const FomEvaluator& fom,
                                    const nn::Mat& population_unit, const Vec& elite_lb_unit,
                                    const Vec& elite_ub_unit, Rng& rng) {
  MAOPT_CHECK(population_unit.rows() > 0, "Actor::train_round: empty population");
  MAOPT_CHECK(population_unit.cols() == dim_, "Actor::train_round: population width != dim");
  MAOPT_CHECK(elite_lb_unit.size() == dim_ && elite_ub_unit.size() == dim_,
              "Actor::train_round: elite box must have dim() entries");
  const std::size_t nb = config_.batch_size;
  const auto last_row = static_cast<std::int64_t>(population_unit.rows()) - 1;
  double total_loss = 0.0;

  states_.ensure_shape(nb, dim_);
  for (int step = 0; step < config_.steps_per_round; ++step) {
    for (std::size_t k = 0; k < nb; ++k) {
      const auto idx = static_cast<std::size_t>(rng.uniform_int(0, last_row));
      const auto u = population_unit.row(idx);
      for (std::size_t c = 0; c < dim_; ++c) states_(k, c) = u[c];
    }
    const nn::Mat& actions = act_and_predict(critic);

    // dL/d(raw metrics) from the FoM, averaged over the batch.
    d_raw_.ensure_shape(nb, raw_.cols());
    double batch_loss = 0.0;
    for (std::size_t k = 0; k < nb; ++k) {
      batch_loss += fom(raw_.row(k));
      const auto g = d_raw_.row(k);
      fom.gradient_into(raw_.row(k), g);
      for (double& gc : g) gc = gc / static_cast<double>(nb);
    }
    critic.action_gradient_into(d_raw_, d_action_);

    // Boundary violation against the elite bounding box (Eq. 6), unit space.
    for (std::size_t k = 0; k < nb; ++k) {
      double norm = 0.0;
      for (std::size_t c = 0; c < dim_; ++c) {
        const double xn = states_(k, c) + actions(k, c);
        viol_[c] = 0.0;
        sign_[c] = 0.0;
        if (xn < elite_lb_unit[c]) {
          viol_[c] = elite_lb_unit[c] - xn;
          sign_[c] = -1.0;
        } else if (xn > elite_ub_unit[c]) {
          viol_[c] = xn - elite_ub_unit[c];
          sign_[c] = 1.0;
        }
        norm += viol_[c] * viol_[c];
      }
      norm = std::sqrt(norm);
      batch_loss += config_.lambda * norm;
      if (norm > 1e-12) {
        for (std::size_t c = 0; c < dim_; ++c)
          d_action_(k, c) +=
              config_.lambda * sign_[c] * viol_[c] / norm / static_cast<double>(nb);
      }
    }

    mlp_.backward_params(d_action_);
    adam_.step();
    total_loss += batch_loss / static_cast<double>(nb);
  }
  return total_loss / std::max(1, config_.steps_per_round);
}

Vec Actor::select_candidate_unit(Surrogate& critic, const FomEvaluator& fom,
                                 const std::vector<EliteSet::Entry>& elites,
                                 const nn::RangeScaler& scaler) {
  MAOPT_CHECK(!elites.empty(), "Actor::select_candidate_unit: empty elite set");
  const std::size_t n = elites.size();
  states_.ensure_shape(n, dim_);
  for (std::size_t k = 0; k < n; ++k) {
    const Vec u = scaler.to_unit(elites[k].x);
    MAOPT_CHECK(u.size() == dim_, "Actor::select_candidate_unit: elite design width != dim");
    for (std::size_t c = 0; c < dim_; ++c) states_(k, c) = u[c];
  }
  const nn::Mat& actions = act_and_predict(critic);
  std::size_t best = 0;
  double best_g = 1e300;
  for (std::size_t k = 0; k < n; ++k) {
    const double g = fom(raw_.row(k));
    if (g < best_g) {
      best_g = g;
      best = k;
    }
  }
  Vec proposal(dim_);
  for (std::size_t c = 0; c < dim_; ++c) proposal[c] = states_(best, c) + actions(best, c);
  return proposal;
}

}  // namespace maopt::core
