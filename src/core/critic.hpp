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

/// Interface shared by a single critic and a critic ensemble — everything
/// the actors and the near-sampling method need from the simulator
/// surrogate Q(x, dx).
class Surrogate {
 public:
  virtual ~Surrogate() = default;
  /// Predicted raw metric vectors for a batch of (x, dx) unit-space inputs,
  /// written to `raw` (reshaped, capacity reused; must not alias `x_dx`).
  virtual void predict_into(const nn::Mat& x_dx, nn::Mat& raw) = 0;
  /// Gradient of a scalar loss w.r.t. the dx part of the input, given the
  /// loss gradient w.r.t. the raw predicted metrics, written to `d_action`
  /// (reshaped, capacity reused); must follow the matching predict call
  /// (forward caches).
  virtual void action_gradient_into(const nn::Mat& d_loss_d_raw_metrics, nn::Mat& d_action) = 0;
  virtual std::size_t dim() const = 0;
  virtual std::size_t num_metrics() const = 0;

  /// Allocating forms of predict_into/action_gradient_into for cold paths.
  nn::Mat predict(const nn::Mat& x_dx) {
    nn::Mat raw;
    predict_into(x_dx, raw);
    return raw;
  }
  nn::Mat action_gradient(const nn::Mat& d_loss_d_raw_metrics) {
    nn::Mat d_action;
    action_gradient_into(d_loss_d_raw_metrics, d_action);
    return d_action;
  }
};

struct CriticConfig {
  std::vector<std::size_t> hidden = {100, 100};  ///< paper: 2 x 100
  double learning_rate = 1e-3;
  std::size_t batch_size = 64;   ///< N_b
  int steps_per_round = 50;      ///< minibatch SGD steps per training round
};

class Critic final : public Surrogate {
 public:
  Critic(std::size_t dim, std::size_t num_metrics, const CriticConfig& config, Rng& rng);

  /// Copy shares no state; used to give each actor-training thread a private
  /// forward/backward workspace. The optimizer state is reset in the copy,
  /// and the training buffers are not copied.
  Critic(const Critic& other);
  Critic& operator=(const Critic&) = delete;

  /// Runs `steps_per_round` minibatch steps on pseudo-samples (the metric
  /// normalizer must be fitted). Returns mean MSE (normalized units) over
  /// the round. Each step is two phases of fixed chunks run by the caller
  /// plus idle workers of `pool` (the caller alone when null): batch-row
  /// blocks for the forward pass, loss gradient and input-gradient chain,
  /// then parameter-row blocks for dW, db and the Adam update. Every element
  /// comes from the same kernel call with the same operands whoever runs
  /// it, so the weights and the loss are bit-identical for any pool.
  double train_round(const PseudoSampleBatcher& batcher, Rng& rng, ThreadPool* pool = nullptr);

  void predict_into(const nn::Mat& x_dx, nn::Mat& raw) override;

  void action_gradient_into(const nn::Mat& d_loss_d_raw_metrics, nn::Mat& d_action) override;

  void fit_normalizer(const std::vector<SimRecord>& records);
  bool normalizer_ready() const { return norm_.fitted(); }
  std::size_t dim() const override { return dim_; }
  std::size_t num_metrics() const override { return num_metrics_; }
  std::size_t num_parameters() const { return mlp_.num_parameters(); }
  nn::Mlp& network() { return mlp_; }

 private:
  /// One Linear layer of mlp_ as the training round sees it: W is (in x out)
  /// row-major; act/grad are its (batch x out) output and loss gradient.
  struct LayerView {
    std::size_t in = 0, out = 0;
    Vec *w = nullptr, *dw = nullptr, *b = nullptr, *db = nullptr;
    nn::Mat act;     ///< output; ReLU applied in place on hidden layers
    nn::Mat grad;    ///< dL/d(pre-activation output)
    nn::Mat packed;  ///< W^T (out x in) for the input-gradient GEMM
  };

  void bind_layers();
  void prepare_round(std::size_t batch);
  std::size_t num_param_chunks() const;
  void rows_chunk(std::size_t chunk);
  void params_chunk(std::size_t chunk, const nn::AdamStep& step);

  std::size_t dim_;
  std::size_t num_metrics_;
  CriticConfig config_;
  nn::Mlp mlp_;
  nn::Adam adam_;
  nn::ZScoreNormalizer norm_;
  // Training state reused across train_round calls (not copied).
  std::vector<LayerView> layers_;
  nn::Mat batch_x_, batch_y_raw_, batch_y_;
  // Normalized-space loss gradient for action_gradient_into (not copied).
  nn::Mat dz_;
};

/// Ensemble of independently initialized critics whose predictions (and
/// action gradients) are averaged. The paper (Section II-B) considered
/// multiple critics and rejected them for memory cost; MaOptConfig's
/// num_critics > 1 reproduces that trade-off for the ablation bench.
class CriticEnsemble final : public Surrogate {
 public:
  CriticEnsemble(std::size_t num_critics, std::size_t dim, std::size_t num_metrics,
                 const CriticConfig& config, Rng& rng);
  CriticEnsemble(const CriticEnsemble& other) = default;

  /// Trains every member for one round. Each member draws from its own
  /// derive_seed-derived stream keyed off a single draw from `rng`. With one
  /// member, that member's round is partitioned across `pool`; with several,
  /// members train in parallel across `pool` (serially on a 1-worker pool).
  /// Either way the parameters are bit-identical for every thread count.
  double train_round(const PseudoSampleBatcher& batcher, Rng& rng, ThreadPool* pool = nullptr);
  void fit_normalizer(const std::vector<SimRecord>& records, ThreadPool* pool = nullptr);

  void predict_into(const nn::Mat& x_dx, nn::Mat& raw) override;
  void action_gradient_into(const nn::Mat& d_loss_d_raw_metrics, nn::Mat& d_action) override;
  std::size_t dim() const override { return members_.front().dim(); }
  std::size_t num_metrics() const override { return members_.front().num_metrics(); }

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
