// Microbenchmarks: MA-Opt building blocks — pseudo-sample batching, one
// critic training round, one actor training round, and a full near-sampling
// scan at the paper's N_samples = 2000. These are the quantities behind the
// Section III-C claim that near-sampling is cheaper than actor training.
#include <benchmark/benchmark.h>

#include "circuits/analytic_problems.hpp"
#include "core/actor.hpp"
#include "core/critic.hpp"
#include "core/elite_set.hpp"
#include "core/near_sampling.hpp"

namespace {

using namespace maopt;
using namespace maopt::core;

struct Workbench {
  ckt::ConstrainedQuadratic problem{16};
  nn::RangeScaler scaler{problem.lower_bounds(), problem.upper_bounds()};
  ckt::FomEvaluator fom{problem, 1.0};
  std::vector<SimRecord> records;
  CriticConfig critic_config;

  Workbench() {
    Rng rng(1);
    for (int i = 0; i < 100; ++i) {
      SimRecord r;
      r.x = problem.random_design(rng);
      r.metrics = problem.evaluate(r.x).metrics;
      records.push_back(std::move(r));
    }
  }
};

void BM_PseudoSampleBatch(benchmark::State& state) {
  Workbench w;
  PseudoSampleBatcher batcher(w.records, w.scaler);
  Rng rng(2);
  nn::Mat x, y;
  for (auto _ : state) {
    batcher.sample(64, rng, x, y);
    benchmark::DoNotOptimize(x.data().data());
  }
}
BENCHMARK(BM_PseudoSampleBatch);

void BM_CriticTrainRound(benchmark::State& state) {
  Workbench w;
  Rng rng(3);
  Critic critic(16, 3, w.critic_config, rng);
  critic.fit_normalizer(w.records);
  PseudoSampleBatcher batcher(w.records, w.scaler);
  Rng trng(4);
  for (auto _ : state) benchmark::DoNotOptimize(critic.train_round(batcher, trng));
}
BENCHMARK(BM_CriticTrainRound);

void BM_ActorTrainRound(benchmark::State& state) {
  // One actor's lockstep round, pool-less: the per-actor cost of an
  // iteration's actor training.
  Workbench w;
  Rng rng(5);
  CriticEnsemble critic(1, 16, 3, w.critic_config, rng);
  critic.fit_normalizer(w.records);
  PseudoSampleBatcher batcher(w.records, w.scaler);
  Rng trng(6);
  critic.train_round(batcher, trng);
  ActorConfig acfg;
  Actor actor(16, acfg, rng);
  // N_es = 20 elite states, as in the paper's runs.
  ActorTask task{trng, linalg::Vec(16, -1.0), linalg::Vec(16, 1.0), nn::Mat(20, 16, 0.25)};
  ActorRound round(16, 1, acfg);
  for (auto _ : state) {
    round.run(std::span<Actor>(&actor, 1), std::span<ActorTask>(&task, 1), critic, w.fom,
              batcher.unit_designs());
    benchmark::DoNotOptimize(round.loss(0));
  }
}
BENCHMARK(BM_ActorTrainRound);

void BM_NearSamplingScan2000(benchmark::State& state) {
  Workbench w;
  Rng rng(7);
  Critic critic(16, 3, w.critic_config, rng);
  critic.fit_normalizer(w.records);
  PseudoSampleBatcher batcher(w.records, w.scaler);
  Rng trng(8);
  critic.train_round(batcher, trng);
  NearSamplingConfig ns;  // paper: 2000 samples
  const linalg::Vec x_opt(16, 0.4);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        near_sampling_candidate(w.problem, w.fom, critic, w.scaler, x_opt, ns, trng));
}
BENCHMARK(BM_NearSamplingScan2000);

void BM_EliteSetInsert(benchmark::State& state) {
  EliteSet es(20);
  Rng rng(9);
  linalg::Vec x(16, 0.5);
  for (auto _ : state) benchmark::DoNotOptimize(es.try_insert(x, rng.uniform()));
}
BENCHMARK(BM_EliteSetInsert);

}  // namespace

BENCHMARK_MAIN();
