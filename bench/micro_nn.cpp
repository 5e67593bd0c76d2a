// Microbenchmarks: the neural-network stack at the paper's architecture
// (two hidden layers x 100 units) — one critic minibatch step is the unit
// of cost that dominates MA-Opt's "runtime" rows.
#include <benchmark/benchmark.h>

#include "../tests/support/mlp_reference.hpp"
#include "circuits/analytic_problems.hpp"
#include "core/critic.hpp"
#include "nn/adam.hpp"
#include "nn/mlp.hpp"

namespace {

using namespace maopt;
using namespace maopt::nn;

void BM_PaperCriticForward(benchmark::State& state) {
  Rng rng(1);
  Mlp net = Mlp::make_paper_net(32, 9, rng, false);  // 2d = 32 (16-param circuit)
  Mat x(static_cast<std::size_t>(state.range(0)), 32, 0.1);
  for (auto _ : state) benchmark::DoNotOptimize(net.forward(x));
}
BENCHMARK(BM_PaperCriticForward)->Arg(1)->Arg(64)->Arg(2000);

void BM_PaperCriticTrainStep(benchmark::State& state) {
  Rng rng(2);
  Mlp net = Mlp::make_paper_net(32, 9, rng, false);
  Adam opt(net.params(), {});
  Mat x(64, 32, 0.1), y(64, 9, 0.2), grad;
  for (auto _ : state) {
    const Mat pred = net.forward(x);
    benchmark::DoNotOptimize(testing::mse_loss(pred, y, &grad));
    net.backward_params(grad);
    opt.step();
  }
}
BENCHMARK(BM_PaperCriticTrainStep);

void BM_PaperActorForward(benchmark::State& state) {
  Rng rng(3);
  Mlp net = Mlp::make_paper_net(16, 16, rng, true);
  Mat x(64, 16, 0.1);
  for (auto _ : state) benchmark::DoNotOptimize(net.forward(x));
}
BENCHMARK(BM_PaperActorForward);

void BM_InputGradient(benchmark::State& state) {
  Rng rng(4);
  Mlp net = Mlp::make_paper_net(32, 9, rng, false);
  Mat x(64, 32, 0.1), dy(64, 9, 1.0);
  net.forward(x);
  for (auto _ : state) benchmark::DoNotOptimize(net.input_gradient(dy));
}
BENCHMARK(BM_InputGradient);

void BM_MlpClone(benchmark::State& state) {
  Rng rng(5);
  Mlp net = Mlp::make_paper_net(32, 9, rng, false);
  for (auto _ : state) {
    Mlp copy = net;
    benchmark::DoNotOptimize(copy.num_parameters());
  }
}
BENCHMARK(BM_MlpClone);

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
