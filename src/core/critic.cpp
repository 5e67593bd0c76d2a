#include "core/critic.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/phase_runner.hpp"
#include "common/thread_annotations.hpp"

namespace maopt::core {

namespace {
std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }
}  // namespace

Critic::Critic(std::size_t dim, std::size_t num_metrics, const CriticConfig& config, Rng& rng)
    : dim_(dim),
      num_metrics_(num_metrics),
      config_(config),
      net_(2 * dim, config.hidden, num_metrics, rng, /*tanh_output=*/false),
      adam_(net_.params(), {.lr = config.learning_rate}) {}

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

MAOPT_HOT double Critic::train_round(const PseudoSampleBatcher& batcher, Rng& rng,
                                     ThreadPool* pool) {
  MAOPT_CHECK(norm_.fitted(), "Critic::train_round: fit_normalizer must run first");
  MAOPT_CHECK(config_.batch_size > 0, "Critic::train_round: batch_size must be >= 1");
  MAOPT_CHECK(batcher.unit_designs().cols() == dim_,
              "Critic::train_round: batcher design width != critic dim");
  const std::size_t batch = config_.batch_size;
  // Sized and packed before the first step; capacity is reused by every
  // later round.
  net_.set_rows(rows_, batch);
  net_.pack();
  const std::size_t row_chunks = ceil_div(batch, nn::Mlp::kRowsPerChunk);
  const std::size_t param_chunks = net_.num_param_chunks();
  const std::size_t useful_helpers = std::max(row_chunks, param_chunks) - 1;
  PhaseRunner runner(pool, pool == nullptr ? 0 : std::min(pool->size(), useful_helpers));

  nn::AdamStep step{};
  auto rows = [this](std::size_t chunk) { rows_chunk(chunk); };
  auto params = [this, &step](std::size_t chunk) {
    net_.params_chunk(chunk, rows_, batch_x_.data().data(), adam_, step);
  };
  const std::vector<double>& pred = rows_.output().data();
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
  const std::size_t r0 = chunk * nn::Mlp::kRowsPerChunk;
  const std::size_t nr = std::min(batch, r0 + nn::Mlp::kRowsPerChunk) - r0;
  net_.forward(rows_, batch_x_.data().data() + r0 * net_.input_size(), r0, nr);
  const double n = static_cast<double>(batch * num_metrics_);
  const double* pred = rows_.output().data().data();
  const double* target = batch_y_.data().data();
  double* g = rows_.output_grad().data().data();
  for (std::size_t i = r0 * num_metrics_; i < (r0 + nr) * num_metrics_; ++i) {
    const double d = pred[i] - target[i];
    g[i] = 2.0 * d / n;
  }
  net_.backward(rows_, r0, nr);
}

MAOPT_HOT void Critic::predict_into(const nn::Mat& x_dx, nn::Mat& raw) {
  MAOPT_CHECK(x_dx.cols() == 2 * dim_, "Critic::predict: input must be (batch x 2*dim)");
  MAOPT_CHECK(norm_.fitted(), "Critic::predict: fit_normalizer must run first");
  norm_.inverse_into(net_.forward(rows_, x_dx), raw);
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

std::size_t CriticEnsemble::num_parameters() const {
  std::size_t n = 0;
  for (const auto& m : members_) n += m.num_parameters();
  return n;
}

}  // namespace maopt::core
