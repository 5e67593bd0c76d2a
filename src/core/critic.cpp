#include "core/critic.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/phase_runner.hpp"
#include "common/thread_annotations.hpp"
#include "linalg/gemm.hpp"

namespace maopt::core {

namespace {
nn::Mlp make_net(std::size_t dim, std::size_t num_metrics, const CriticConfig& config, Rng& rng) {
  return nn::Mlp(2 * dim, config.hidden, num_metrics, rng, nn::Activation::Relu,
                 /*output_tanh=*/false);
}

// The chunk map of one training step (DESIGN.md §12, "Partitioned critic
// round"). It depends on the shapes only, never on the thread count.
//
// Chunks are large enough that each one's compute outweighs pulling the
// shared operands (W in phase A, the layer inputs and dY in phase B) into
// its core's cache.
//
// Phase A: batch rows per chunk. A multiple of 4, so every chunk starts
// where the whole-batch GEMMs start a row pair (gemm_nn) or a 4-row block
// (gemm_nt).
constexpr std::size_t kRowsPerChunk = 16;
// Phase B: about this many parameters per chunk, in whole rows of W (plus
// the bias as one extra row). The row count is even, so every chunk starts
// where the whole-matrix gemm_tn starts a row pair.
constexpr std::size_t kParamsPerChunk = 4096;

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

std::size_t param_rows_per_chunk(std::size_t out) {
  return std::max<std::size_t>(2, kParamsPerChunk / out / 2 * 2);
}
}  // namespace

Critic::Critic(std::size_t dim, std::size_t num_metrics, const CriticConfig& config, Rng& rng)
    : dim_(dim),
      num_metrics_(num_metrics),
      config_(config),
      mlp_(make_net(dim, num_metrics, config, rng)),
      adam_(mlp_.params(), {.lr = config.learning_rate}) {
  bind_layers();
}

Critic::Critic(const Critic& other)
    : dim_(other.dim_),
      num_metrics_(other.num_metrics_),
      config_(other.config_),
      mlp_(other.mlp_),
      adam_(mlp_.params(), {.lr = other.config_.learning_rate}),
      norm_(other.norm_) {
  bind_layers();
}

void Critic::bind_layers() {
  // mlp_ is Linear, ReLU, ..., Linear (make_net); its params are W0, b0,
  // W1, b1, ... — the order adam_ indexes them in.
  const std::vector<nn::ParamRef> params = mlp_.params();
  layers_.assign(params.size() / 2, LayerView{});
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    LayerView& layer = layers_[l];
    layer.w = params[2 * l].value;
    layer.dw = params[2 * l].grad;
    layer.b = params[2 * l + 1].value;
    layer.db = params[2 * l + 1].grad;
    layer.out = layer.b->size();
    layer.in = layer.w->size() / layer.out;
  }
}

void Critic::fit_normalizer(const std::vector<SimRecord>& records) {
  MAOPT_CHECK(!records.empty(), "Critic::fit_normalizer: empty population");
  nn::Mat metrics(records.size(), num_metrics_);
  for (std::size_t i = 0; i < records.size(); ++i) {
    MAOPT_CHECK(records[i].metrics.size() == num_metrics_,
                "Critic::fit_normalizer: record metric count != num_metrics");
    for (std::size_t j = 0; j < num_metrics_; ++j) metrics(i, j) = records[i].metrics[j];
  }
  norm_.fit(metrics);
}

void Critic::prepare_round(std::size_t batch) {
  // Sized before the first step; capacity is reused by every later round.
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    LayerView& layer = layers_[l];
    layer.act.ensure_shape(batch, layer.out);
    layer.grad.ensure_shape(batch, layer.out);
    if (l == 0) continue;  // the bottom layer's input gradient is never formed
    // W^T for gemm_nt_packed; phase B keeps it current as W changes.
    layer.packed.ensure_shape(layer.out, layer.in);
    for (std::size_t j = 0; j < layer.in; ++j)
      for (std::size_t p = 0; p < layer.out; ++p)
        layer.packed(p, j) = (*layer.w)[j * layer.out + p];
  }
}

std::size_t Critic::num_param_chunks() const {
  std::size_t n = 0;
  for (const LayerView& layer : layers_)
    n += ceil_div(layer.in + 1, param_rows_per_chunk(layer.out));
  return n;
}

MAOPT_HOT double Critic::train_round(const PseudoSampleBatcher& batcher, Rng& rng,
                                     ThreadPool* pool) {
  MAOPT_CHECK(norm_.fitted(), "Critic::train_round: fit_normalizer must run first");
  MAOPT_CHECK(config_.batch_size > 0, "Critic::train_round: batch_size must be >= 1");
  MAOPT_CHECK(batcher.unit_designs().cols() == dim_,
              "Critic::train_round: batcher design width != critic dim");
  const std::size_t batch = config_.batch_size;
  prepare_round(batch);
  const std::size_t row_chunks = ceil_div(batch, kRowsPerChunk);
  const std::size_t param_chunks = num_param_chunks();
  const std::size_t useful_helpers = std::max(row_chunks, param_chunks) - 1;
  PhaseRunner runner(pool, pool == nullptr ? 0 : std::min(pool->size(), useful_helpers));

  nn::AdamStep step{};
  auto rows = [this](std::size_t chunk) { rows_chunk(chunk); };
  auto params = [this, &step](std::size_t chunk) { params_chunk(chunk, step); };
  const std::vector<double>& pred = layers_.back().act.data();
  double total = 0.0;
  for (int s = 0; s < config_.steps_per_round; ++s) {
    batcher.sample(batch, rng, batch_x_, batch_y_raw_);
    norm_.transform_into(batch_y_raw_, batch_y_);
    MAOPT_CHECK(batch_y_.cols() == num_metrics_,
                "Critic::train_round: pseudo-sample metric count != num_metrics");
    runner.run(row_chunks, rows);
    // The MSE in flat index order, exactly as one whole-batch sum adds it.
    const std::vector<double>& target = batch_y_.data();
    double loss = 0.0;
    for (std::size_t i = 0; i < pred.size(); ++i) {
      const double d = pred[i] - target[i];
      loss += d * d;
    }
    total += loss / static_cast<double>(pred.size());
    step = adam_.begin_step();
    runner.run(param_chunks, params);
  }
  return total / std::max(1, config_.steps_per_round);
}

MAOPT_HOT void Critic::rows_chunk(std::size_t chunk) {
  // Phase A for batch rows [r0, r1): forward through every layer, the MSE
  // gradient, and the input-gradient chain down to the bottom layer's
  // output. All of it is row-local.
  const std::size_t batch = batch_x_.rows();
  const std::size_t r0 = chunk * kRowsPerChunk;
  const std::size_t nr = std::min(batch, r0 + kRowsPerChunk) - r0;
  const std::size_t top = layers_.size() - 1;
  const nn::Mat* x = &batch_x_;
  for (std::size_t l = 0; l <= top; ++l) {
    LayerView& layer = layers_[l];
    double* y = layer.act.data().data() + r0 * layer.out;
    for (std::size_t r = 0; r < nr; ++r)
      std::copy(layer.b->begin(), layer.b->end(), y + r * layer.out);
    linalg::gemm_nn(nr, layer.out, layer.in, x->data().data() + r0 * layer.in, layer.w->data(), y);
    if (l < top)
      for (std::size_t i = 0; i < nr * layer.out; ++i) y[i] = y[i] > 0.0 ? y[i] : 0.0;
    x = &layer.act;
  }

  LayerView& out = layers_[top];
  const double n = static_cast<double>(batch * out.out);
  const double* pred = out.act.data().data();
  const double* target = batch_y_.data().data();
  double* g = out.grad.data().data();
  for (std::size_t i = r0 * out.out; i < (r0 + nr) * out.out; ++i) {
    const double d = pred[i] - target[i];
    g[i] = 2.0 * d / n;
  }

  for (std::size_t l = top; l > 0; --l) {
    const LayerView& layer = layers_[l];
    LayerView& below = layers_[l - 1];
    double* dx = below.grad.data().data() + r0 * layer.in;
    std::fill(dx, dx + nr * layer.in, 0.0);
    linalg::gemm_nt_packed(nr, layer.in, layer.out, layer.grad.data().data() + r0 * layer.out,
                           layer.packed.data().data(), dx);
    // ReLU backward: the activation is positive exactly where its input was.
    const double* h = below.act.data().data() + r0 * layer.in;
    for (std::size_t i = 0; i < nr * layer.in; ++i) dx[i] = h[i] > 0.0 ? dx[i] : 0.0;
  }
}

MAOPT_HOT void Critic::params_chunk(std::size_t chunk, const nn::AdamStep& step) {
  // Phase B for one row block of one layer's parameters, W's rows 0..in-1
  // then the bias as row `in`: the gradient, the Adam update, and (above
  // the bottom layer) the matching columns of the packed W^T.
  std::size_t l = 0;
  for (;; ++l) {
    const std::size_t n = ceil_div(layers_[l].in + 1, param_rows_per_chunk(layers_[l].out));
    if (chunk < n) break;
    chunk -= n;
  }
  LayerView& layer = layers_[l];
  const std::size_t rows = param_rows_per_chunk(layer.out);
  const std::size_t lo = chunk * rows;
  const std::size_t hi = std::min(layer.in + 1, lo + rows);
  const std::size_t w_hi = std::min(hi, layer.in);
  const std::size_t batch = layer.grad.rows();
  const double* dy = layer.grad.data().data();
  if (lo < w_hi) {
    // dW rows [lo, w_hi) += X^T dY, X's columns [lo, w_hi) in place. The
    // gradient is zero here: the previous update cleared it.
    const nn::Mat& x = l == 0 ? batch_x_ : layers_[l - 1].act;
    linalg::gemm_tn(w_hi - lo, layer.out, batch, x.data().data() + lo, layer.in, dy,
                    layer.dw->data() + lo * layer.out);
    adam_.update(step, 2 * l, lo * layer.out, w_hi * layer.out);
    if (l > 0)
      for (std::size_t j = lo; j < w_hi; ++j)
        for (std::size_t p = 0; p < layer.out; ++p)
          layer.packed(p, j) = (*layer.w)[j * layer.out + p];
  }
  if (hi > layer.in) {
    Vec& db = *layer.db;
    for (std::size_t r = 0; r < batch; ++r)
      for (std::size_t j = 0; j < layer.out; ++j) db[j] += dy[r * layer.out + j];
    adam_.update(step, 2 * l + 1, 0, layer.out);
  }
}

MAOPT_HOT void Critic::predict_into(const nn::Mat& x_dx, nn::Mat& raw) {
  MAOPT_CHECK(x_dx.cols() == 2 * dim_, "Critic::predict: input must be (batch x 2*dim)");
  MAOPT_CHECK(norm_.fitted(), "Critic::predict: fit_normalizer must run first");
  norm_.inverse_into(mlp_.forward(x_dx), raw);
}

Vec Critic::predict_one(const Vec& x_unit, const Vec& dx_unit) {
  nn::Mat in(1, 2 * dim_);
  for (std::size_t i = 0; i < dim_; ++i) {
    in(0, i) = x_unit[i];
    in(0, dim_ + i) = dx_unit[i];
  }
  const nn::Mat out = predict(in);
  return Vec(out.row(0).begin(), out.row(0).end());
}

MAOPT_HOT void Critic::action_gradient_into(const nn::Mat& d_loss_d_raw_metrics,
                                           nn::Mat& d_action) {
  MAOPT_CHECK(d_loss_d_raw_metrics.cols() == num_metrics_,
              "Critic::action_gradient: gradient width != num_metrics");
  // Chain through the inverse z-score: raw = z * std + mean  =>  dz = draw * std.
  const Vec& std = norm_.std();
  dz_.ensure_shape(d_loss_d_raw_metrics.rows(), num_metrics_);
  for (std::size_t r = 0; r < dz_.rows(); ++r)
    for (std::size_t c = 0; c < num_metrics_; ++c) dz_(r, c) = d_loss_d_raw_metrics(r, c) * std[c];
  const nn::Mat& dx_full = mlp_.input_gradient(dz_);
  d_action.ensure_shape(dx_full.rows(), dim_);
  for (std::size_t r = 0; r < dx_full.rows(); ++r)
    for (std::size_t c = 0; c < dim_; ++c) d_action(r, c) = dx_full(r, dim_ + c);
}

CriticEnsemble::CriticEnsemble(std::size_t num_critics, std::size_t dim,
                               std::size_t num_metrics, const CriticConfig& config, Rng& rng) {
  MAOPT_CHECK(num_critics > 0, "CriticEnsemble: need >= 1 member");
  MAOPT_CHECK(dim > 0 && num_metrics > 0, "CriticEnsemble: zero-dimensional surrogate");
  members_.reserve(num_critics);
  for (std::size_t i = 0; i < num_critics; ++i) members_.emplace_back(dim, num_metrics, config, rng);
}

double CriticEnsemble::train_round(const PseudoSampleBatcher& batcher, Rng& rng,
                                   ThreadPool* pool) {
  // One draw keys every member's private stream: the caller's rng advances
  // the same amount regardless of member count, and member i's minibatch
  // sequence is independent of who else trains when — so parallel and serial
  // execution produce bit-identical parameters.
  const std::uint64_t round_key = rng.next();
  if (members_.size() == 1) {
    Rng member_rng(derive_seed(round_key, 0));
    return members_.front().train_round(batcher, member_rng, pool);
  }
  std::vector<double> losses(members_.size(), 0.0);
  auto train_member = [&](std::size_t i) {
    Rng member_rng(derive_seed(round_key, i));
    losses[i] = members_[i].train_round(batcher, member_rng);
  };
  if (pool != nullptr && pool->size() > 1) {
    pool->parallel_for(members_.size(), train_member);
  } else {
    for (std::size_t i = 0; i < members_.size(); ++i) train_member(i);
  }
  double total = 0.0;
  for (const double l : losses) total += l;  // fixed order: thread-count invariant
  return total / static_cast<double>(members_.size());
}

void CriticEnsemble::fit_normalizer(const std::vector<SimRecord>& records, ThreadPool* pool) {
  if (pool != nullptr && pool->size() > 1 && members_.size() > 1) {
    pool->parallel_for(members_.size(), [&](std::size_t i) { members_[i].fit_normalizer(records); });
  } else {
    for (auto& m : members_) m.fit_normalizer(records);
  }
}

MAOPT_HOT void CriticEnsemble::predict_into(const nn::Mat& x_dx, nn::Mat& raw) {
  members_.front().predict_into(x_dx, raw);
  for (std::size_t i = 1; i < members_.size(); ++i) {
    members_[i].predict_into(x_dx, member_out_);
    for (std::size_t k = 0; k < raw.data().size(); ++k) raw.data()[k] += member_out_.data()[k];
  }
  const double inv = 1.0 / static_cast<double>(members_.size());
  for (auto& v : raw.data()) v *= inv;
}

MAOPT_HOT void CriticEnsemble::action_gradient_into(const nn::Mat& d_loss_d_raw_metrics,
                                                   nn::Mat& d_action) {
  // d(mean of members)/d(dx) = mean of member gradients. Each member's
  // forward cache is still valid from predict_into() because it ran every
  // member's forward pass last.
  members_.front().action_gradient_into(d_loss_d_raw_metrics, d_action);
  for (std::size_t i = 1; i < members_.size(); ++i) {
    members_[i].action_gradient_into(d_loss_d_raw_metrics, member_out_);
    for (std::size_t k = 0; k < d_action.data().size(); ++k)
      d_action.data()[k] += member_out_.data()[k];
  }
  const double inv = 1.0 / static_cast<double>(members_.size());
  for (auto& v : d_action.data()) v *= inv;
}

std::size_t CriticEnsemble::num_parameters() const {
  std::size_t n = 0;
  for (const auto& m : members_) n += m.num_parameters();
  return n;
}

}  // namespace maopt::core
