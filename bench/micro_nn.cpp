// Microbenchmarks: the neural-network stack at the paper's architecture
// (two hidden layers x 100 units) — one critic minibatch step is the unit
// of cost that dominates MA-Opt's "runtime" rows.
#include <benchmark/benchmark.h>

#include "circuits/analytic_problems.hpp"
#include "core/critic.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"

namespace {

using namespace maopt;
using namespace maopt::nn;

/// The paper's 2 x 100 net.
Mlp paper_net(std::size_t in, std::size_t out, std::uint64_t seed, bool tanh_output) {
  Rng rng(seed);
  return Mlp(in, {100, 100}, out, rng, tanh_output);
}

void BM_PaperCriticForward(benchmark::State& state) {
  Mlp net = paper_net(32, 9, 1, false);  // 2d = 32 (16-param circuit)
  Mat x(static_cast<std::size_t>(state.range(0)), 32, 0.1);
  Mlp::Rows rows;
  for (auto _ : state) benchmark::DoNotOptimize(net.forward(rows, x).data().data());
}
BENCHMARK(BM_PaperCriticForward)->Arg(1)->Arg(64)->Arg(2000);

// One minibatch step of the critic round on one thread: forward, MSE
// gradient, backward, then every parameter chunk's dW, db and Adam update.
void BM_PaperCriticTrainStep(benchmark::State& state) {
  Mlp net = paper_net(32, 9, 2, false);
  Adam opt(net.params(), {});
  Mat x(64, 32, 0.1), y(64, 9, 0.2);
  Mlp::Rows rows;
  net.set_rows(rows, 64);
  net.pack();
  for (auto _ : state) {
    net.forward(rows, x.data().data(), 0, 64);
    const auto& pred = rows.output().data();
    auto& grad = rows.output_grad().data();
    const double n = static_cast<double>(pred.size());
    for (std::size_t i = 0; i < pred.size(); ++i) grad[i] = 2.0 * (pred[i] - y.data()[i]) / n;
    net.backward(rows, 0, 64);
    const AdamStep step = opt.begin_step();
    for (std::size_t c = 0; c < net.num_param_chunks(); ++c)
      net.params_chunk(c, rows, x.data().data(), opt, step);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PaperCriticTrainStep);

void BM_PaperActorForward(benchmark::State& state) {
  Mlp net = paper_net(16, 16, 3, true);
  Mat x(64, 16, 0.1);
  Mlp::Rows rows;
  for (auto _ : state) benchmark::DoNotOptimize(net.forward(rows, x).data().data());
}
BENCHMARK(BM_PaperActorForward);

// The critic's action gradient in the actors' round: backward from the
// output, then the input gradient at the 16 action columns.
void BM_InputGradient(benchmark::State& state) {
  Mlp net = paper_net(32, 9, 4, false);
  Mat x(64, 32, 0.1), dx(64, 16);
  Mlp::Rows rows;
  net.forward(rows, x);
  net.pack();
  net.pack_input_columns(16, 32);
  for (auto _ : state) {
    rows.output_grad().fill(1.0);
    net.backward(rows, 0, 64);
    net.input_gradient(rows, 0, 64, dx.data().data());
    benchmark::DoNotOptimize(dx.data().data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_InputGradient);

// Full critic training round at the paper configuration (2 x 100 hidden,
// batch 32, 50 minibatch steps) on a 16-dim problem with 9 metrics — the
// per-iteration training cost in MA-Opt's runtime rows.
struct TrainRoundSetup {
  TrainRoundSetup()
      : problem(16), scaler(problem.lower_bounds(), problem.upper_bounds()) {
    Rng rng(6);
    for (int i = 0; i < 100; ++i) {
      core::SimRecord r;
      r.x = problem.random_design(rng);
      const auto m = problem.evaluate(r.x).metrics;
      r.metrics.assign(9, 0.0);
      for (std::size_t c = 0; c < m.size() && c < 9; ++c) r.metrics[c] = m[c];
      records.push_back(std::move(r));
    }
    config.hidden = {100, 100};
    config.batch_size = 32;
    config.steps_per_round = 50;
  }
  ckt::ConstrainedQuadratic problem;
  nn::RangeScaler scaler;
  std::vector<core::SimRecord> records;
  core::CriticConfig config;
};

void BM_CriticTrainRound(benchmark::State& state) {
  TrainRoundSetup setup;
  Rng crng(7), trng(8);
  core::Critic critic(16, 9, setup.config, crng);
  critic.fit_normalizer(setup.records);
  const core::PseudoSampleBatcher batcher(setup.records, setup.scaler);
  for (auto _ : state) benchmark::DoNotOptimize(critic.train_round(batcher, trng));
}
BENCHMARK(BM_CriticTrainRound);

// Arg = pool thread count; 4 members so the pooled path has work to spread.
void BM_CriticEnsembleTrainRound(benchmark::State& state) {
  TrainRoundSetup setup;
  Rng crng(9), trng(10);
  core::CriticEnsemble ens(4, 16, 9, setup.config, crng);
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  ens.fit_normalizer(setup.records, &pool);
  const core::PseudoSampleBatcher batcher(setup.records, setup.scaler);
  for (auto _ : state) benchmark::DoNotOptimize(ens.train_round(batcher, trng, &pool));
}
BENCHMARK(BM_CriticEnsembleTrainRound)->Arg(1)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
