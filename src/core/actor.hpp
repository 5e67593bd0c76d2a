// Actor network (paper Eq. 5/6): predicts the design change dx = mu(x) that
// minimizes the critic-predicted FoM, with a boundary-violation penalty
// lambda * ||viol||_2 boxing the proposed design into the elite set's
// bounding box. Training is the deterministic-policy-gradient chain
//   dL/dtheta = (dg/dQ . dQ/da + dviol/da) . da/dtheta,
// implemented with the critic's input-gradient path.
//
// The N_act actors of an iteration train together: ActorRound runs their
// rounds as one sequence of lockstep steps against the frozen critic,
// spread over the calling thread and a pool (DESIGN.md §12, "Lockstep actor
// round").
#pragma once

#include <span>
#include <vector>

#include "circuits/fom.hpp"
#include "common/thread_pool.hpp"
#include "core/critic.hpp"
#include "nn/mlp.hpp"

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
  /// Move-only: the optimizer's parameter views point into the network.
  Actor(Actor&&) = default;

  std::size_t dim() const { return dim_; }
  nn::Mlp& network() { return net_; }

 private:
  friend class ActorRound;

  std::size_t dim_;
  nn::Mlp net_;
  nn::Adam adam_;
  nn::Mlp::Rows rows_;
};

/// One actor's inputs to a lockstep round. The caller fills them before
/// each round; the buffers keep their capacity from round to round.
struct ActorTask {
  Rng rng;               ///< the actor's minibatch stream
  Vec lb_unit, ub_unit;  ///< its elite bounding box in unit space (Eq. 6)
  nn::Mat elites_unit;   ///< its elite states in unit space, one per row
};

/// The lockstep round of up to `max_actors` actors, and its workspace.
class ActorRound {
 public:
  ActorRound(std::size_t dim, std::size_t max_actors, const ActorConfig& config);

  /// Trains actors[i] for `steps_per_round` steps against the frozen
  /// `critic`, on minibatches of `population_unit` rows (the iteration's
  /// PseudoSampleBatcher::unit_designs()) drawn from tasks[i].rng, then
  /// picks its candidate (Algorithm 1 line 8): over tasks[i].elites_unit,
  /// the state whose proposed move has the lowest critic-predicted FoM.
  /// Every step is two phases of fixed chunks run by the caller plus idle
  /// workers of `pool` (the caller alone when null); the weights, losses and
  /// proposals are bit-identical for any pool. Allocation-free once warm,
  /// apart from dispatching the helpers.
  void run(std::span<Actor> actors, std::span<ActorTask> tasks, CriticEnsemble& critic,
           const FomEvaluator& fom, const nn::Mat& population_unit, ThreadPool* pool = nullptr);

  /// Actor i's mean training loss over the last round.
  double loss(std::size_t i) const { return losses_[i]; }
  /// Actor i's proposal from the last round: x* + mu(x*) in unit space,
  /// unclipped.
  std::span<const double> proposal(std::size_t i) const { return proposals_.row(i); }

 private:
  void predict(std::size_t i, std::size_t r0, std::size_t g0, std::size_t nr,
               const double* actions);
  void train_chunk(std::size_t chunk);
  void params_chunk(std::size_t chunk);
  void select_chunk(std::size_t chunk);

  std::size_t dim_;
  std::size_t max_actors_;
  ActorConfig config_;
  std::vector<std::size_t> batch_rows_;  ///< population row of every (actor, step, batch row)
  std::vector<nn::AdamStep> adam_steps_;
  std::vector<std::size_t> elite_offset_;  ///< first stacked row of each actor's elites
  /// The frozen critic's per-row state for each (member m, actor i), at
  /// m * max_actors + i: each actor's rows in blocks of their own, as its
  /// own passes would size them.
  std::vector<nn::Mlp::Rows> critic_rows_;
  // Stacked per-row state: actor i's training rows are [i N_b, (i+1) N_b);
  // its elite rows are [elite_offset_[i], elite_offset_[i + 1]).
  nn::Mat states_, critic_in_, raw_, d_raw_, member_raw_, member_grad_;
  nn::Mat terms_;  ///< per row: the FoM term and the violation term of the loss
  nn::Mat proposals_;
  Vec losses_;
  // The round in progress, for the chunk functions.
  std::span<Actor> actors_;
  std::span<ActorTask> tasks_;
  CriticEnsemble* critic_ = nullptr;
  const FomEvaluator* fom_ = nullptr;
  const nn::Mat* population_ = nullptr;
  std::size_t step_ = 0;
};

}  // namespace maopt::core
