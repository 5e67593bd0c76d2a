#include "core/actor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/check.hpp"
#include "common/phase_runner.hpp"
#include "common/thread_annotations.hpp"

namespace maopt::core {

namespace {

constexpr std::size_t kRows = nn::Mlp::kRowsPerChunk;

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

/// How far `xn` lies outside [lb, ub], and on which side (-1 below, +1
/// above, 0 inside).
double violation(double xn, double lb, double ub, double& sign) {
  if (xn < lb) {
    sign = -1.0;
    return lb - xn;
  }
  if (xn > ub) {
    sign = 1.0;
    return xn - ub;
  }
  sign = 0.0;
  return 0.0;
}

}  // namespace

Actor::Actor(std::size_t dim, const ActorConfig& config, Rng& rng)
    : dim_(dim),
      net_(dim, config.hidden, dim, rng, /*tanh_output=*/true),
      adam_(net_.params(), {.lr = config.learning_rate}) {}

ActorRound::ActorRound(std::size_t dim, std::size_t max_actors, const ActorConfig& config)
    : dim_(dim),
      max_actors_(max_actors),
      config_(config),
      batch_rows_(max_actors * static_cast<std::size_t>(std::max(0, config.steps_per_round)) *
                  config.batch_size),
      adam_steps_(max_actors),
      elite_offset_(max_actors + 1, 0),
      proposals_(max_actors, dim),
      losses_(max_actors, 0.0) {
  MAOPT_CHECK(config.batch_size > 0, "ActorRound: batch_size must be >= 1");
}

MAOPT_HOT void ActorRound::run(std::span<Actor> actors, std::span<ActorTask> tasks,
                               CriticEnsemble& critic, const FomEvaluator& fom,
                               const nn::Mat& population_unit, ThreadPool* pool) {
  const std::size_t n = actors.size();
  const std::size_t d = dim_;
  const std::size_t nb = config_.batch_size;
  const auto steps = static_cast<std::size_t>(std::max(0, config_.steps_per_round));
  // Everything a chunk relies on is checked here: a chunk must not throw.
  MAOPT_CHECK(n > 0 && n == tasks.size() && n <= max_actors_,
              "ActorRound::run: one task per actor, 1..max_actors of them");
  MAOPT_CHECK(population_unit.rows() > 0, "ActorRound::run: empty population");
  MAOPT_CHECK(population_unit.cols() == d, "ActorRound::run: population width != dim");
  MAOPT_CHECK(critic.dim() == d, "ActorRound::run: critic dim != actor dim");
  MAOPT_CHECK(critic.num_metrics() == fom.problem().num_metrics(),
              "ActorRound::run: critic metric count != FoM metric count");
  for (std::size_t i = 0; i < n; ++i) {
    MAOPT_CHECK(actors[i].dim() == d, "ActorRound::run: actor dim != round dim");
    MAOPT_CHECK(tasks[i].lb_unit.size() == d && tasks[i].ub_unit.size() == d,
                "ActorRound::run: elite box must have dim() entries");
    MAOPT_CHECK(tasks[i].elites_unit.rows() > 0, "ActorRound::run: empty elite set");
    MAOPT_CHECK(tasks[i].elites_unit.cols() == d, "ActorRound::run: elite state width != dim");
  }
  actors_ = actors;
  tasks_ = tasks;
  critic_ = &critic;
  fom_ = &fom;
  population_ = &population_unit;

  // Before the first step, the caller alone: every actor's minibatches from
  // its own stream (the order one actor training alone draws them in), and
  // the frozen critic's Wᵀ, packed once for the round.
  const auto last_row = static_cast<std::int64_t>(population_unit.rows()) - 1;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < steps * nb; ++k)
      batch_rows_[i * steps * nb + k] = static_cast<std::size_t>(tasks[i].rng.uniform_int(0, last_row));
  for (std::size_t m = 0; m < critic.size(); ++m) {
    critic.member(m).network().pack();
    critic.member(m).network().pack_input_columns(d, 2 * d);
  }
  elite_offset_[0] = 0;
  for (std::size_t i = 0; i < n; ++i)
    elite_offset_[i + 1] = elite_offset_[i] + tasks[i].elites_unit.rows();
  std::size_t select_chunks = 0;
  for (std::size_t i = 0; i < n; ++i) select_chunks += ceil_div(tasks[i].elites_unit.rows(), kRows);

  const std::size_t train_chunks = n * ceil_div(nb, kRows);
  const std::size_t param_chunks = n * actors[0].net_.num_param_chunks();
  const std::size_t useful_helpers =
      std::max({train_chunks, param_chunks, select_chunks}) - 1;
  PhaseRunner runner(pool, pool == nullptr ? 0 : std::min(pool->size(), useful_helpers));

  // Training: every step is phase A (rows), the caller's loss sums and Adam
  // coefficients, then phase B (parameters). Each actor's rows, and the
  // critic's state for them, are sized for `actor_rows(i)` rows.
  if (critic_rows_.size() < critic.size() * max_actors_)
    critic_rows_.resize(critic.size() * max_actors_);  // maopt-lint: allow(hot-alloc) first round
  auto size_rows = [&](std::size_t rows, auto actor_rows) {
    for (std::size_t i = 0; i < n; ++i) {
      actors[i].net_.set_rows(actors[i].rows_, actor_rows(i));
      for (std::size_t m = 0; m < critic.size(); ++m)
        critic.member(m).network().set_rows(critic_rows_[m * max_actors_ + i], actor_rows(i));
    }
    const std::size_t m1 = critic.num_metrics();
    states_.ensure_shape(rows, d);
    critic_in_.ensure_shape(rows, 2 * d);
    raw_.ensure_shape(rows, m1);
    d_raw_.ensure_shape(rows, m1);
    member_raw_.ensure_shape(rows, m1);
    member_grad_.ensure_shape(rows, d);
    terms_.ensure_shape(rows, 2);
  };
  size_rows(n * nb, [nb](std::size_t) { return nb; });
  for (std::size_t i = 0; i < n; ++i) {
    actors[i].net_.pack();
    losses_[i] = 0.0;
  }
  auto train = [this](std::size_t chunk) { train_chunk(chunk); };
  auto params = [this](std::size_t chunk) { params_chunk(chunk); };
  for (step_ = 0; step_ < steps; ++step_) {
    runner.run(train_chunks, train);
    for (std::size_t i = 0; i < n; ++i) {
      // The loss as one actor's whole batch adds it: every FoM term, then
      // every violation term.
      double batch_loss = 0.0;
      for (std::size_t k = 0; k < nb; ++k) batch_loss += terms_(i * nb + k, 0);
      for (std::size_t k = 0; k < nb; ++k) batch_loss += terms_(i * nb + k, 1);
      losses_[i] += batch_loss / static_cast<double>(nb);
      adam_steps_[i] = actors[i].adam_.begin_step();
    }
    runner.run(param_chunks, params);
  }

  // Selection: every actor scores its elite states, then the caller takes
  // the first lowest predicted FoM.
  size_rows(elite_offset_[n], [&tasks](std::size_t i) { return tasks[i].elites_unit.rows(); });
  auto select = [this](std::size_t chunk) { select_chunk(chunk); };
  runner.run(select_chunks, select);
  for (std::size_t i = 0; i < n; ++i) {
    losses_[i] /= static_cast<double>(std::max<std::size_t>(1, steps));
    std::size_t best = 0;
    double best_g = 1e300;
    for (std::size_t k = 0; k < tasks[i].elites_unit.rows(); ++k) {
      const double g = terms_(elite_offset_[i] + k, 0);
      if (g < best_g) {
        best_g = g;
        best = k;
      }
    }
    const nn::Mat& actions = actors[i].rows_.output();
    for (std::size_t c = 0; c < d; ++c)
      proposals_(i, c) = states_(elite_offset_[i] + best, c) + actions(best, c);
  }
}

MAOPT_HOT void ActorRound::predict(std::size_t i, std::size_t r0, std::size_t g0, std::size_t nr,
                                   const double* actions) {
  // Actor i's rows [r0, r0 + nr), stacked rows [g0, g0 + nr): critic_in_ =
  // [states, actions] and raw_, the members' mean prediction, summed in
  // member order.
  const std::size_t d = dim_;
  for (std::size_t r = 0; r < nr; ++r) {
    double* in = critic_in_.data().data() + (g0 + r) * 2 * d;
    std::copy_n(states_.data().data() + (g0 + r) * d, d, in);
    std::copy_n(actions + r * d, d, in + d);
  }
  const std::size_t m1 = critic_->num_metrics();
  double* raw = raw_.data().data() + g0 * m1;
  for (std::size_t m = 0; m < critic_->size(); ++m) {
    Critic& member = critic_->member(m);
    nn::Mlp::Rows& rows = critic_rows_[m * max_actors_ + i];
    member.network().forward(rows, critic_in_.data().data() + g0 * 2 * d, r0, nr);
    const double* z = rows.output().data().data() + r0 * m1;
    const Vec& mean = member.normalizer().mean();
    const Vec& std = member.normalizer().std();
    double* out = m == 0 ? raw : member_raw_.data().data() + g0 * m1;
    for (std::size_t r = 0; r < nr; ++r)
      for (std::size_t c = 0; c < m1; ++c) out[r * m1 + c] = z[r * m1 + c] * std[c] + mean[c];
    if (m > 0)
      for (std::size_t k = 0; k < nr * m1; ++k) raw[k] += out[k];
  }
  const double inv = 1.0 / static_cast<double>(critic_->size());
  for (std::size_t k = 0; k < nr * m1; ++k) raw[k] *= inv;
}

MAOPT_HOT void ActorRound::train_chunk(std::size_t chunk) {
  // Phase A for rows [r0, r0 + nr) of one actor's minibatch: the actor's
  // forward pass, the critic's prediction and input gradient, the FoM
  // gradient and the Eq. 6 violation term, and the actor's input-gradient
  // chain. All of it is row-local.
  const std::size_t d = dim_;
  const std::size_t nb = config_.batch_size;
  const std::size_t per_actor = ceil_div(nb, kRows);
  const std::size_t i = chunk / per_actor;
  const std::size_t r0 = chunk % per_actor * kRows;
  const std::size_t nr = std::min(nb, r0 + kRows) - r0;
  const std::size_t g0 = i * nb + r0;
  const std::size_t steps = static_cast<std::size_t>(config_.steps_per_round);
  Actor& actor = actors_[i];
  const ActorTask& task = tasks_[i];

  const std::size_t* rows = batch_rows_.data() + (i * steps + step_) * nb + r0;
  for (std::size_t r = 0; r < nr; ++r) {
    const auto u = population_->row(rows[r]);
    std::copy(u.begin(), u.end(), states_.data().data() + (g0 + r) * d);
  }
  actor.net_.forward(actor.rows_, states_.data().data() + g0 * d, r0, nr);
  const double* actions = actor.rows_.output().data().data() + r0 * d;
  predict(i, r0, g0, nr, actions);

  // dL/d(raw metrics) from the FoM, averaged over the batch.
  const auto scale = static_cast<double>(nb);
  for (std::size_t g = g0; g < g0 + nr; ++g) {
    terms_(g, 0) = (*fom_)(raw_.row(g));
    const auto grad = d_raw_.row(g);
    fom_->gradient_into(raw_.row(g), grad);
    for (double& gc : grad) gc = gc / scale;
  }

  // dL/d(action): the members' input gradients at the action columns,
  // chained through each one's inverse z-score (raw = z std + mean, so
  // dz = draw std), averaged in member order.
  const std::size_t m1 = critic_->num_metrics();
  double* d_action = actor.rows_.output_grad().data().data() + r0 * d;
  for (std::size_t m = 0; m < critic_->size(); ++m) {
    Critic& member = critic_->member(m);
    const nn::Mlp& net = member.network();
    nn::Mlp::Rows& rows = critic_rows_[m * max_actors_ + i];
    const Vec& std = member.normalizer().std();
    double* dz = rows.output_grad().data().data() + r0 * m1;
    const double* draw = d_raw_.data().data() + g0 * m1;
    for (std::size_t r = 0; r < nr; ++r)
      for (std::size_t c = 0; c < m1; ++c) dz[r * m1 + c] = draw[r * m1 + c] * std[c];
    net.backward(rows, r0, nr);
    if (m == 0) {
      net.input_gradient(rows, r0, nr, d_action);
    } else {
      double* out = member_grad_.data().data() + g0 * d;
      net.input_gradient(rows, r0, nr, out);
      for (std::size_t k = 0; k < nr * d; ++k) d_action[k] += out[k];
    }
  }
  const double inv = 1.0 / static_cast<double>(critic_->size());
  for (std::size_t k = 0; k < nr * d; ++k) d_action[k] *= inv;

  // Boundary violation against the elite bounding box (Eq. 6), unit space.
  const double lambda = config_.lambda;
  for (std::size_t r = 0; r < nr; ++r) {
    const double* s = states_.data().data() + (g0 + r) * d;
    const double* a = actions + r * d;
    double sign = 0.0;
    double norm = 0.0;
    for (std::size_t c = 0; c < d; ++c) {
      const double v = violation(s[c] + a[c], task.lb_unit[c], task.ub_unit[c], sign);
      norm += v * v;
    }
    norm = std::sqrt(norm);
    terms_(g0 + r, 1) = lambda * norm;
    if (norm > 1e-12)
      for (std::size_t c = 0; c < d; ++c) {
        const double v = violation(s[c] + a[c], task.lb_unit[c], task.ub_unit[c], sign);
        d_action[r * d + c] += lambda * sign * v / norm / scale;
      }
  }

  actor.net_.backward(actor.rows_, r0, nr);
}

MAOPT_HOT void ActorRound::params_chunk(std::size_t chunk) {
  // Phase B for one parameter chunk of one actor: dW, db, the Adam update
  // and the refreshed Wᵀ columns.
  const std::size_t per_actor = actors_[0].net_.num_param_chunks();
  const std::size_t i = chunk / per_actor;
  Actor& actor = actors_[i];
  actor.net_.params_chunk(chunk % per_actor, actor.rows_,
                          states_.data().data() + i * config_.batch_size * dim_, actor.adam_,
                          adam_steps_[i]);
}

MAOPT_HOT void ActorRound::select_chunk(std::size_t chunk) {
  // Rows [r0, r0 + nr) of one actor's elite states: the actor's move and
  // the critic's predicted FoM of it.
  std::size_t i = 0;
  for (;; ++i) {
    const std::size_t n = ceil_div(tasks_[i].elites_unit.rows(), kRows);
    if (chunk < n) break;
    chunk -= n;
  }
  const nn::Mat& elites = tasks_[i].elites_unit;
  const std::size_t d = dim_;
  const std::size_t r0 = chunk * kRows;
  const std::size_t nr = std::min(elites.rows(), r0 + kRows) - r0;
  const std::size_t g0 = elite_offset_[i] + r0;
  std::copy_n(elites.data().data() + r0 * d, nr * d, states_.data().data() + g0 * d);
  Actor& actor = actors_[i];
  actor.net_.forward(actor.rows_, states_.data().data() + g0 * d, r0, nr);
  predict(i, r0, g0, nr, actor.rows_.output().data().data() + r0 * d);
  for (std::size_t g = g0; g < g0 + nr; ++g) terms_(g, 0) = (*fom_)(raw_.row(g));
}

}  // namespace maopt::core
