// Training-hot-path regression benchmark (the perf record behind the
// runtime rows): measures the GEMM kernels, Critic::train_round (serial and
// partitioned over a pool) and CriticEnsemble::train_round on the paper net
// (2 x 100 hidden, batch 32), and the 3-actor lockstep ActorRound at OTA
// shapes (pool-less and on 4 threads), then writes BENCH_train.json so the numbers
// are versioned and future PRs can spot regressions. End-to-end throughput
// lives in perfbench/ (the paper_ota workload).
//
// Flags:
//   --smoke           tiny sizes / few reps (CTest wiring; seconds, not minutes)
//   --threads N       pool size for the pooled ensemble row (default 4)
//   --members N       ensemble size for the pooled train_round row (default 4)
//   --json PATH       output path (default BENCH_train.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "../tests/support/naive_linalg.hpp"
#include "exp_common.hpp"
#include "linalg/gemm.hpp"

namespace {

using namespace maopt;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double checksum_sink = 0.0;  // defeats dead-code elimination

std::vector<core::SimRecord> make_population(ckt::SizingProblem& problem, std::size_t n,
                                             std::size_t num_metrics, Rng& rng) {
  std::vector<core::SimRecord> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    core::SimRecord r;
    r.x = problem.random_design(rng);
    const auto m = problem.evaluate(r.x).metrics;
    r.metrics.assign(num_metrics, 0.0);
    for (std::size_t c = 0; c < m.size() && c < num_metrics; ++c) r.metrics[c] = m[c];
    r.simulation_ok = true;
    records.push_back(std::move(r));
  }
  return records;
}

double gflops(std::size_t n, int reps, double seconds) {
  return 2.0 * static_cast<double>(n) * static_cast<double>(n) * static_cast<double>(n) * reps /
         seconds / 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const bool smoke = args.get_bool("smoke");
  const auto threads = std::max<std::size_t>(1, static_cast<std::size_t>(args.get_int("threads", 4)));
  const auto members = std::max<std::size_t>(1, static_cast<std::size_t>(args.get_int("members", 4)));
  const std::string json_path = args.get("json", "BENCH_train.json");

  std::vector<bench::BenchMetric> metrics;

  // --- 1) GEMM kernels: naive vs blocked, square n x n ---
  {
    const std::size_t n = smoke ? 48 : 256;
    const int reps = smoke ? 2 : 20;
    Rng rng(1);
    linalg::Mat a(n, n), b(n, n), c(n, n);
    for (auto& v : a.data()) v = rng.uniform(-1, 1);
    for (auto& v : b.data()) v = rng.uniform(-1, 1);

    checksum_sink += linalg::testing::matmul(a, b)(0, 0);  // warm
    auto t0 = Clock::now();
    for (int r = 0; r < reps; ++r) checksum_sink += linalg::testing::matmul(a, b)(0, 0);
    const double naive_gf = gflops(n, reps, seconds_since(t0));

    const auto blocked = [&] {
      c.fill(0.0);
      linalg::gemm_nn(n, n, n, a.data().data(), b.data().data(), c.data().data());
    };
    blocked();
    t0 = Clock::now();
    for (int r = 0; r < reps; ++r) {
      blocked();
      checksum_sink += c(0, 0);
    }
    const double blocked_gf = gflops(n, reps, seconds_since(t0));

    std::printf("gemm %zux%zu: naive %.2f, blocked %.2f GFLOP/s\n", n, n, naive_gf, blocked_gf);
    metrics.push_back({"kernel_naive_gflops", naive_gf, "GFLOP/s"});
    metrics.push_back({"kernel_blocked_gflops", blocked_gf, "GFLOP/s"});
  }

  // --- 2) critic train_round, paper net (2 x 100 hidden, batch 32) ---
  {
    const std::size_t dim = 16, num_metrics = 9;
    ckt::ConstrainedQuadratic problem(dim);
    nn::RangeScaler scaler(problem.lower_bounds(), problem.upper_bounds());
    Rng rng(2);
    const auto records = make_population(problem, smoke ? 20 : 100, num_metrics, rng);
    const core::PseudoSampleBatcher batcher(records, scaler);

    core::CriticConfig cfg;
    cfg.hidden = {100, 100};
    cfg.batch_size = 32;
    cfg.steps_per_round = smoke ? 5 : 50;
    const int reps = smoke ? 2 : 20;

    // Single critic, serial (the DNN-Opt / num_critics=1 path).
    {
      Rng crng(3), trng(4);
      core::Critic critic(dim, num_metrics, cfg, crng);
      critic.fit_normalizer(records);
      checksum_sink += critic.train_round(batcher, trng);
      const auto t0 = Clock::now();
      for (int r = 0; r < reps; ++r) checksum_sink += critic.train_round(batcher, trng);
      const double ms = seconds_since(t0) / reps * 1e3;
      std::printf("critic train_round (1 member, serial): %.2f ms\n", ms);
      metrics.push_back({"train_round_ms", ms, "ms"});
    }

    // The same round partitioned across a 3-worker pool plus the caller
    // (MA-Opt's num_critics=1 path on its 3-actor pool).
    {
      Rng crng(3), trng(4);
      core::Critic critic(dim, num_metrics, cfg, crng);
      critic.fit_normalizer(records);
      ThreadPool pool(3);
      checksum_sink += critic.train_round(batcher, trng, &pool);
      const auto t0 = Clock::now();
      for (int r = 0; r < reps; ++r) checksum_sink += critic.train_round(batcher, trng, &pool);
      const double ms = seconds_since(t0) / reps * 1e3;
      std::printf("critic train_round (1 member, 3-worker pool + caller): %.2f ms\n", ms);
      metrics.push_back({"critic_round_pooled_ms", ms, "ms"});
    }

    // Ensemble across the pool (the ablation num_critics>1 path).
    for (const std::size_t nthreads : {std::size_t{1}, threads}) {
      Rng crng(3), trng(4);
      core::CriticEnsemble ens(members, dim, num_metrics, cfg, crng);
      ThreadPool pool(nthreads);
      ens.fit_normalizer(records, &pool);
      checksum_sink += ens.train_round(batcher, trng, &pool);
      const auto t0 = Clock::now();
      for (int r = 0; r < reps; ++r) checksum_sink += ens.train_round(batcher, trng, &pool);
      const double ms = seconds_since(t0) / reps * 1e3;
      std::printf("ensemble train_round (%zu members, %zu threads): %.2f ms\n", members, nthreads,
                  ms);
      metrics.push_back({"ensemble_train_round_" + std::to_string(nthreads) + "t_ms", ms, "ms"});
    }
  }

  // --- 3) the lockstep actor round on the OTA (d = 16, m+1 = 9): three
  // paper actors (batch 64, 30 steps) against one trained paper critic,
  // each scoring 20 elite states ---
  {
    const ckt::TwoStageOta ota;
    const std::size_t dim = ota.dim(), num_metrics = ota.num_metrics(), num_actors = 3;
    const nn::RangeScaler scaler(ota.lower_bounds(), ota.upper_bounds());
    Rng rng(5);
    std::vector<core::SimRecord> records;
    std::vector<linalg::Vec> rows;
    for (core::SimRecord& r : core::sample_initial_set(ota, smoke ? 20 : 100, rng))
      if (r.simulation_ok) {
        rows.push_back(r.metrics);
        records.push_back(std::move(r));
      }
    const core::PseudoSampleBatcher batcher(records, scaler);
    const auto fom = ckt::FomEvaluator::fit_reference(ota, rows);
    core::CriticConfig ccfg;
    ccfg.steps_per_round = smoke ? 5 : 50;
    core::ActorConfig acfg;
    if (smoke) acfg.steps_per_round = 3;
    const int reps = smoke ? 2 : 30;

    Rng crng(6), trng(7);
    core::CriticEnsemble critic(1, dim, num_metrics, ccfg, crng);
    critic.fit_normalizer(records);
    critic.train_round(batcher, trng);
    std::vector<core::ActorTask> tasks(num_actors);
    for (std::size_t i = 0; i < num_actors; ++i) {
      tasks[i].lb_unit.assign(dim, -0.5);
      tasks[i].ub_unit.assign(dim, 0.5);
      tasks[i].elites_unit = nn::Mat(20, dim, 0.0);
      for (std::size_t k = 0; k < 20; ++k)
        for (std::size_t c = 0; c < dim; ++c)
          tasks[i].elites_unit(k, c) = batcher.unit_designs()(k % records.size(), c);
    }
    // Pool-less, then the caller plus MA-Opt's default 3-worker pool.
    for (const std::size_t workers : {std::size_t{0}, std::size_t{3}}) {
      std::vector<core::Actor> actors;
      for (std::size_t i = 0; i < num_actors; ++i) {
        Rng arng(derive_seed(8, i));
        actors.emplace_back(dim, acfg, arng);
      }
      core::ActorRound round(dim, num_actors, acfg);
      std::unique_ptr<ThreadPool> pool;
      if (workers > 0) pool = std::make_unique<ThreadPool>(workers);
      std::vector<double> ms;
      for (int r = 0; r <= reps; ++r) {
        for (std::size_t i = 0; i < num_actors; ++i) tasks[i].rng = Rng(derive_seed(9 + r, i));
        const auto t0 = Clock::now();
        round.run(actors, tasks, critic, fom, batcher.unit_designs(), pool.get());
        if (r > 0) ms.push_back(seconds_since(t0) * 1e3);  // round 0 warms up
        checksum_sink += round.loss(0);
      }
      std::sort(ms.begin(), ms.end());
      const double median = ms[ms.size() / 2];
      const std::string name = "actor_round_" + std::to_string(workers + 1) + "t_ms";
      std::printf("actor round (%zu actors, %zu thread(s)): median %.2f ms [%.2f, %.2f]\n",
                  num_actors, workers + 1, median, ms[ms.size() / 4], ms[3 * ms.size() / 4]);
      metrics.push_back({name, median, "ms"});
    }
  }

  bench::write_bench_json(json_path, metrics);
  std::printf("checksum %g\n", checksum_sink);
  return 0;
}
