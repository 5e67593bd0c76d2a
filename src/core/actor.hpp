// Actor network (paper Eq. 5/6): predicts the design change dx = mu(x) that
// minimizes the critic-predicted FoM, with a boundary-violation penalty
// lambda * ||viol||_2 boxing the proposed design into the elite set's
// bounding box. Training is the deterministic-policy-gradient chain
//   dL/dtheta = (dg/dQ . dQ/da + dviol/da) . da/dtheta,
// implemented with the critic's input-gradient path.
#pragma once

#include "circuits/fom.hpp"
#include "core/critic.hpp"
#include "core/elite_set.hpp"

namespace maopt::core {

struct ActorConfig {
  std::vector<std::size_t> hidden = {100, 100};  ///< paper: 2 x 100
  double learning_rate = 1e-3;
  std::size_t batch_size = 64;  ///< N_b
  int steps_per_round = 30;
  double lambda = 10.0;  ///< boundary-violation weight (paper: "significantly large")
};

class Actor {
 public:
  Actor(std::size_t dim, const ActorConfig& config, Rng& rng);

  /// One training round against `critic` (each thread passes its own copy).
  /// States are rows of `population_unit` (population x dim, unit space —
  /// the iteration's PseudoSampleBatcher::unit_designs()); `elite_lb/ub`
  /// are the elite bounding box mapped to unit space, dim() entries each.
  /// Returns the mean loss over the round. Allocation-free once the
  /// per-actor workspaces have seen the batch shape.
  double train_round(Surrogate& critic, const FomEvaluator& fom, const nn::Mat& population_unit,
                     const Vec& elite_lb_unit, const Vec& elite_ub_unit, Rng& rng);

  /// Action mu(x) for a single unit-space state.
  Vec propose_unit(const Vec& x_unit);

  /// Algorithm 1 line 8: over the elite entries, pick the state whose
  /// proposed move has the lowest critic-predicted FoM; returns the proposed
  /// design in unit space (x* + mu(x*), unclipped).
  Vec select_candidate_unit(Surrogate& critic, const FomEvaluator& fom,
                            const std::vector<EliteSet::Entry>& elites,
                            const nn::RangeScaler& scaler);

  std::size_t dim() const { return dim_; }
  nn::Mlp& network() { return mlp_; }

 private:
  /// Runs the actor on states_ and the critic on [states_, actions] into
  /// raw_; returns the actions (valid until the actor's next forward or
  /// backward call).
  const nn::Mat& act_and_predict(Surrogate& critic);

  std::size_t dim_;
  ActorConfig config_;
  nn::Mlp mlp_;
  nn::Adam adam_;
  // Per-actor workspaces reused across steps and rounds.
  nn::Mat states_, critic_in_, raw_, d_raw_, d_action_;
  Vec viol_, sign_;  ///< per-row boundary violation and its direction (dim)
};

}  // namespace maopt::core
