// Critic network (paper Eq. 4): an MLP regression surrogate of the SPICE
// simulator. Input (x, dx) in the unit design space, output the m+1 metric
// vector (z-scored internally). Unlike a true RL critic it predicts the
// full simulation outcome, and the FoM g(.) is applied on top (Eq. 5).
#pragma once

#include "circuits/fom.hpp"
#include "common/thread_pool.hpp"
#include "core/pseudo_samples.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"

namespace maopt::core {

struct CriticConfig {
  std::vector<std::size_t> hidden = {100, 100};  ///< paper: 2 x 100
  double learning_rate = 1e-3;
  std::size_t batch_size = 64;   ///< N_b
  int steps_per_round = 50;      ///< minibatch SGD steps per training round
};

class Critic {
 public:
  Critic(std::size_t dim, std::size_t num_metrics, const CriticConfig& config, Rng& rng);

  /// Move-only: the optimizer's parameter views point into the network.
  Critic(Critic&&) = default;

  /// Runs `steps_per_round` minibatch steps on pseudo-samples (the metric
  /// normalizer must be fitted). Returns mean MSE (normalized units) over
  /// the round. Each step is two phases of fixed chunks run by the caller
  /// plus idle workers of `pool` (the caller alone when null): batch-row
  /// blocks for the forward pass, loss gradient and input-gradient chain,
  /// then parameter-row blocks for dW, db and the Adam update. Every element
  /// comes from the same kernel call with the same operands whoever runs
  /// it, so the weights and the loss are bit-identical for any pool.
  double train_round(const PseudoSampleBatcher& batcher, Rng& rng, ThreadPool* pool = nullptr);

  /// Predicted raw metric vectors for a batch of (x, dx) unit-space inputs,
  /// written to `raw` (reshaped, capacity reused; must not alias `x_dx`):
  /// one forward pass over every row.
  void predict_into(const nn::Mat& x_dx, nn::Mat& raw);

  void fit_normalizer(const std::vector<SimRecord>& records);
  bool normalizer_ready() const { return norm_.fitted(); }
  std::size_t dim() const { return dim_; }
  std::size_t num_metrics() const { return num_metrics_; }
  std::size_t num_parameters() const { return net_.num_parameters(); }
  /// The net the training round, the actors' lockstep round and
  /// predict_into run on.
  nn::Mlp& network() { return net_; }
  const nn::ZScoreNormalizer& normalizer() const { return norm_; }

 private:
  void rows_chunk(std::size_t chunk);

  std::size_t dim_;
  std::size_t num_metrics_;
  CriticConfig config_;
  nn::Mlp net_;
  nn::Adam adam_;
  nn::ZScoreNormalizer norm_;
  // Pass state reused across train_round and predict_into calls.
  nn::Mlp::Rows rows_;
  nn::Mat batch_x_, batch_y_raw_, batch_y_;
};

/// Ensemble of independently initialized critics whose predictions (and,
/// in the actors' round, action gradients) are averaged: the simulator
/// surrogate Q(x, dx) the actors and the near-sampling method query. The
/// paper (Section II-B) considered multiple critics and rejected them for
/// memory cost; MaOptConfig's num_critics > 1 reproduces that trade-off for
/// the ablation bench.
class CriticEnsemble {
 public:
  CriticEnsemble(std::size_t num_critics, std::size_t dim, std::size_t num_metrics,
                 const CriticConfig& config, Rng& rng);

  /// Trains every member for one round. Each member draws from its own
  /// derive_seed-derived stream keyed off a single draw from `rng`. With one
  /// member, that member's round is partitioned across `pool`; with several,
  /// members train in parallel across `pool` (serially on a 1-worker pool).
  /// Either way the parameters are bit-identical for every thread count.
  double train_round(const PseudoSampleBatcher& batcher, Rng& rng, ThreadPool* pool = nullptr);
  void fit_normalizer(const std::vector<SimRecord>& records, ThreadPool* pool = nullptr);

  /// The members' mean of Critic::predict_into, summed in member order.
  void predict_into(const nn::Mat& x_dx, nn::Mat& raw);
  std::size_t dim() const { return members_.front().dim(); }
  std::size_t num_metrics() const { return members_.front().num_metrics(); }

  std::size_t size() const { return members_.size(); }
  Critic& member(std::size_t i) { return members_[i]; }
  /// Total trainable parameters across members (the memory-cost axis).
  std::size_t num_parameters() const;

 private:
  std::vector<Critic> members_;
  // Members 1.. write here before being summed into the caller's output.
  nn::Mat member_out_;
};

}  // namespace maopt::core
