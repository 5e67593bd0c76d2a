// One actor trained alone, a whole minibatch at a time, through the
// whole-batch reference passes of mlp_reference.hpp: Eq. 5/6 and Algorithm
// 1 line 8 written plainly, the oracle the lockstep tests hold ActorRound
// (core/actor) to, bit for bit.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/actor.hpp"
#include "core/elite_set.hpp"
#include "mlp_reference.hpp"
#include "nn/normalizer.hpp"

namespace maopt::core::testing {

class ReferenceActor {
 public:
  /// Draws the same initial weights from `rng` as Actor(dim, config, rng).
  ReferenceActor(std::size_t dim, const ActorConfig& config, Rng& rng)
      : dim_(dim),
        config_(config),
        net_(dim, config.hidden, dim, rng, /*tanh_output=*/true),
        adam_(net_.params(), {.lr = config.learning_rate}),
        pass_(net_, /*tanh_output=*/true),
        viol_(dim, 0.0),
        sign_(dim, 0.0) {}

  /// One training round against `critic`; returns the mean loss.
  double train_round(CriticEnsemble& critic, const FomEvaluator& fom,
                     const nn::Mat& population_unit, const Vec& elite_lb_unit,
                     const Vec& elite_ub_unit, Rng& rng) {
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
      ensemble_action_gradient(critic, critic_in_, d_raw_, d_action_);

      // Boundary violation against the elite bounding box (Eq. 6).
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

      pass_.backward_params(d_action_);
      adam_.step();
      total_loss += batch_loss / static_cast<double>(nb);
    }
    return total_loss / std::max(1, config_.steps_per_round);
  }

  /// Algorithm 1 line 8: the elite state whose proposed move has the lowest
  /// critic-predicted FoM; returns x* + mu(x*) in unit space, unclipped.
  Vec select_candidate_unit(CriticEnsemble& critic, const FomEvaluator& fom,
                            const std::vector<EliteSet::Entry>& elites,
                            const nn::RangeScaler& scaler) {
    const std::size_t n = elites.size();
    states_.ensure_shape(n, dim_);
    for (std::size_t k = 0; k < n; ++k) {
      const Vec u = scaler.to_unit(elites[k].x);
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

  nn::Mlp& network() { return net_; }

 private:
  /// Runs the actor on states_ and the critic on [states_, actions] into
  /// raw_; returns the actions.
  const nn::Mat& act_and_predict(CriticEnsemble& critic) {
    const nn::Mat& actions = pass_.forward(states_);
    critic_in_.ensure_shape(states_.rows(), 2 * dim_);
    for (std::size_t k = 0; k < states_.rows(); ++k)
      for (std::size_t c = 0; c < dim_; ++c) {
        critic_in_(k, c) = states_(k, c);
        critic_in_(k, dim_ + c) = actions(k, c);
      }
    ensemble_predict(critic, critic_in_, raw_);
    return actions;
  }

  std::size_t dim_;
  ActorConfig config_;
  nn::Mlp net_;
  nn::Adam adam_;
  nn::testing::ReferenceNet pass_;
  nn::Mat states_, critic_in_, raw_, d_raw_, d_action_;
  Vec viol_, sign_;
};

}  // namespace maopt::core::testing
