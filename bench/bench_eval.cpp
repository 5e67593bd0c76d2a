// Evaluation-service benchmark (writes BENCH_eval.json): measures what the
// service is for — cache hits replacing simulations and batches replacing
// serial point calls. The inner problem is an analytic quadratic wrapped in a
// fixed synthetic delay, standing in for a SPICE run whose cost dwarfs the
// service overhead (the regime the paper's Section III-C runtime split puts
// real sizing runs in).
//
// Rows (service, synthetic simulator cost):
//   cold_sims_per_s    point path, empty cache (every request simulates)
//   warm_sims_per_s    point path, same designs again (every request hits)
//   warm_speedup       warm / cold
//   point_sims_per_s   serial evaluate() over fresh designs
//   batch_sims_per_s   one evaluate_batch() over the same count of fresh designs
//   batch_speedup      batch / point
//
// Rows (fault-tolerant variation sweeps, synthetic simulator cost): each
// optimizer-visible evaluation of a RobustProblem/YieldProblem fans out to
// |variants| simulations, so corner and Monte Carlo workloads are where
// batching pays the most.
//   sweep_serial_sims_per_s   5-corner RobustProblem over the serial sweep
//   sweep_batched_sims_per_s  same corners fanned through EvalService
//   sweep_batch_speedup       batched / serial
//   mc_serial_sims_per_s      64-instance YieldProblem, serial sweep
//   mc_batched_sims_per_s     same instances fanned through EvalService
//   mc_batch_speedup          batched / serial
//
// Rows (optimization-as-a-service daemon, synthetic simulator cost): four
// Random-search jobs — one per tenant — over one shared worker pool, run
// back-to-back vs concurrently. Random search is point-path (one simulation
// in flight per job), so the serial baseline is genuinely serial and the
// concurrent aggregate measures the daemon's job multiplexing.
//   daemon_serial_sims_per_s      4 jobs submitted and awaited one at a time
//   daemon_concurrent_sims_per_s  the same 4 jobs in flight together
//   daemon_concurrency_speedup    concurrent / serial (>= 3x acceptance bar)
//   daemon_fairness_ratio         worst max/min granted-sims ratio across the
//                                 equal-weight tenants, sampled while all
//                                 jobs contend (<= 2x acceptance bar)
//
// Rows (raw in-tree simulator, real TwoStageOta — per-layer hot-path record;
// each is the best of several interleaved rounds so one noisy round cannot
// fake a regression or an improvement):
//   raw_point_sims_per_s      fresh evaluate() per design (cold benches)
//   raw_session_sims_per_s    one persistent EvalSession (amortized benches)
//   raw_session_speedup       session / point
//   raw_batch_sims_per_s      EvalService::evaluate_batch over the session pool
//   newton_iterations_per_solve  DC-sweep Newton effort (workspace counters)
//   lu_factor_solve_per_s     assemble-factor-solve cycles on the MNA size
//   lu_resolve_per_s          back-substitutions against a held factorization
//   lu_reuse_speedup          resolve / factor+solve (the factor/solve split)
//   ac_sweep_points_per_s     hot-path AC points (G/C split + SIMD combine)
//   ac_multi_rhs_speedup      3-excitation run_multi vs 3 independent runs
//
// Flags:
//   --smoke        tiny sizes (CTest wiring; a few seconds)
//   --threads N    service batch pool size (default 4)
//   --designs N    designs per measurement (default 128; smoke 24)
//   --sim-us N     synthetic simulation cost in microseconds (default 500; smoke 100)
//   --raw-evals N  raw-simulator evaluations per round (default 24; smoke 4)
//   --json PATH    output path (default BENCH_eval.json)
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <vector>

#include "exp_common.hpp"
#include "spice/ac_analysis.hpp"
#include "spice/dc_analysis.hpp"
#include "spice/devices.hpp"
#include "spice/mosfet.hpp"

namespace {

using namespace maopt;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Adds a fixed delay to every evaluation — a stand-in simulator cost. It
/// claims process-variation support so the sweep benches can fan corners and
/// Monte Carlo instances over it; the synthetic cost model itself is
/// variation-independent (only throughput is measured).
class SlowProblem final : public ckt::SizingProblem {
 public:
  SlowProblem(const ckt::SizingProblem& inner, int micros) : inner_(&inner), micros_(micros) {}

  const ckt::ProblemSpec& spec() const override { return inner_->spec(); }
  std::size_t dim() const override { return inner_->dim(); }
  const linalg::Vec& lower_bounds() const override { return inner_->lower_bounds(); }
  const linalg::Vec& upper_bounds() const override { return inner_->upper_bounds(); }
  const std::vector<bool>& integer_mask() const override { return inner_->integer_mask(); }
  std::vector<std::string> parameter_names() const override { return inner_->parameter_names(); }
  ckt::EvalResult evaluate(const linalg::Vec& x) const override {
    std::this_thread::sleep_for(std::chrono::microseconds(micros_));
    return inner_->evaluate(x);
  }
  bool supports_process_variation() const override { return true; }
  ckt::EvalResult evaluate_at(const linalg::Vec& x,
                              const ckt::ProcessVariation& /*pv*/) const override {
    std::this_thread::sleep_for(std::chrono::microseconds(micros_));
    return inner_->evaluate(x);
  }

 private:
  const ckt::SizingProblem* inner_;
  int micros_;
};

std::vector<linalg::Vec> make_designs(const ckt::SizingProblem& problem, std::size_t n,
                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<linalg::Vec> designs;
  designs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) designs.push_back(problem.random_design(rng));
  return designs;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const bool smoke = args.get_bool("smoke");
  const auto threads =
      std::max<std::size_t>(1, static_cast<std::size_t>(args.get_int("threads", 4)));
  const auto designs_n = static_cast<std::size_t>(args.get_int("designs", smoke ? 24 : 128));
  const int sim_us = static_cast<int>(args.get_int("sim-us", smoke ? 100 : 500));
  const std::string json_path = args.get("json", "BENCH_eval.json");

  ckt::ConstrainedQuadratic quad(16);
  SlowProblem problem(quad, sim_us);
  std::vector<bench::BenchMetric> metrics;

  const auto cache_dir = std::filesystem::temp_directory_path() / "maopt_bench_eval_cache";
  std::filesystem::remove_all(cache_dir);

  // --- 1) cold vs warm point-path throughput over a persistent journal ---
  double cold_rate = 0.0;
  {
    eval::EvalServiceConfig config;
    config.num_threads = threads;
    config.cache_dir = cache_dir.string();
    const auto designs = make_designs(problem, designs_n, 11);

    double cold_s = 0.0;
    {
      eval::EvalService service(problem, config);
      const auto t0 = Clock::now();
      for (const auto& x : designs) service.evaluate(x);
      cold_s = seconds_since(t0);
    }
    double warm_s = 0.0;
    {
      eval::EvalService service(problem, config);  // fresh process stand-in, same journal
      const auto t0 = Clock::now();
      for (const auto& x : designs) service.evaluate(x);
      warm_s = seconds_since(t0);
      const auto c = service.counters();
      if (c.hits != designs.size())
        std::fprintf(stderr, "warning: warm pass expected %zu hits, got %llu\n", designs.size(),
                     static_cast<unsigned long long>(c.hits));
    }
    cold_rate = static_cast<double>(designs.size()) / cold_s;
    const double warm_rate = static_cast<double>(designs.size()) / warm_s;
    std::printf("point path, %zu designs @ %d us: cold %.0f sims/s, warm %.0f sims/s (%.1fx)\n",
                designs_n, sim_us, cold_rate, warm_rate, warm_rate / cold_rate);
    metrics.push_back({"cold_sims_per_s", cold_rate, "sims/s"});
    metrics.push_back({"warm_sims_per_s", warm_rate, "sims/s"});
    metrics.push_back({"warm_speedup", warm_rate / cold_rate, "x"});
  }
  std::filesystem::remove_all(cache_dir);

  // --- 2) batch vs point throughput on fresh (uncached) designs ---
  {
    eval::EvalServiceConfig config;
    config.num_threads = threads;
    eval::EvalService service(problem, config);  // memory-only

    const auto batch_designs = make_designs(problem, designs_n, 23);
    const auto t0 = Clock::now();
    service.evaluate_batch(batch_designs, nullptr);
    const double batch_s = seconds_since(t0);
    const double batch_rate = static_cast<double>(designs_n) / batch_s;

    // The cold point rate above is the serial baseline for the same cost.
    std::printf("batch path, %zu designs over %zu threads: %.0f sims/s (%.1fx vs point)\n",
                designs_n, threads, batch_rate, batch_rate / cold_rate);
    metrics.push_back({"point_sims_per_s", cold_rate, "sims/s"});
    metrics.push_back({"batch_sims_per_s", batch_rate, "sims/s"});
    metrics.push_back({"batch_speedup", batch_rate / cold_rate, "x"});
  }

  // --- 3) fault-tolerant variation sweeps: serial vs batched fan-out ---
  // One RobustProblem/YieldProblem evaluation is |variants| simulations; the
  // serial path runs them one after another, the EvalService backend runs
  // them as one parallel batch with per-variant cache keys. Thread count is
  // forced to at least 8: the synthetic cost is a sleep, so even a one-core
  // CI box shows the fan-out win.
  {
    const auto sweep_threads = std::max<std::size_t>(8, threads);
    const auto sweep_designs = static_cast<std::size_t>(smoke ? 4 : 16);
    const auto mc_designs = static_cast<std::size_t>(smoke ? 1 : 4);

    const auto time_sweep = [](const ckt::SizingProblem& sweep,
                               const std::vector<linalg::Vec>& designs) {
      const auto t0 = Clock::now();
      for (const auto& x : designs) sweep.evaluate(x);
      return seconds_since(t0);
    };

    // 5-corner worst-case sweep.
    double corner_speedup = 0.0;
    {
      const ckt::RobustProblem serial(problem);
      eval::EvalServiceConfig config;
      config.num_threads = sweep_threads;
      const eval::EvalService service(problem, config);
      const ckt::RobustProblem batched(service);
      const auto designs = make_designs(problem, sweep_designs, 31);
      const double sims = static_cast<double>(sweep_designs * serial.num_corners());
      const double serial_rate = sims / time_sweep(serial, designs);
      const double batched_rate = sims / time_sweep(batched, designs);
      corner_speedup = batched_rate / serial_rate;
      std::printf("corner sweep, %zu designs x %zu corners over %zu threads: "
                  "serial %.0f, batched %.0f sims/s (%.1fx)\n",
                  sweep_designs, serial.num_corners(), sweep_threads, serial_rate, batched_rate,
                  corner_speedup);
      metrics.push_back({"sweep_serial_sims_per_s", serial_rate, "sims/s"});
      metrics.push_back({"sweep_batched_sims_per_s", batched_rate, "sims/s"});
      metrics.push_back({"sweep_batch_speedup", corner_speedup, "x"});
    }

    // 64-instance Monte Carlo yield sweep.
    {
      ckt::YieldConfig yield_config;
      const ckt::YieldProblem serial(problem, yield_config);
      eval::EvalServiceConfig config;
      config.num_threads = sweep_threads;
      const eval::EvalService service(problem, config);
      const ckt::YieldProblem batched(service, yield_config);
      const auto designs = make_designs(problem, mc_designs, 37);
      const double sims = static_cast<double>(mc_designs * serial.num_instances());
      const double serial_rate = sims / time_sweep(serial, designs);
      const double batched_rate = sims / time_sweep(batched, designs);
      std::printf("mc sweep, %zu designs x %zu instances over %zu threads: "
                  "serial %.0f, batched %.0f sims/s (%.1fx)\n",
                  mc_designs, serial.num_instances(), sweep_threads, serial_rate, batched_rate,
                  batched_rate / serial_rate);
      metrics.push_back({"mc_serial_sims_per_s", serial_rate, "sims/s"});
      metrics.push_back({"mc_batched_sims_per_s", batched_rate, "sims/s"});
      metrics.push_back({"mc_batch_speedup", batched_rate / serial_rate, "x"});
    }
    if (corner_speedup < 3.0)
      std::fprintf(stderr, "warning: sweep_batch_speedup %.2fx below the 3x acceptance bar\n",
                   corner_speedup);
  }

  // --- 4) optimization-as-a-service daemon: multiplexing and fair share ---
  // Serial and concurrent phases use separate work dirs and disjoint seeds,
  // so no phase warms the other's journals: every simulation pays sim_us.
  {
    const auto daemon_threads = std::max<std::size_t>(8, threads);
    constexpr std::size_t kJobs = 4;
    const std::size_t job_budget = smoke ? 16 : 96;
    const std::size_t job_init = smoke ? 4 : 8;
    const double total_sims = static_cast<double>(kJobs * (job_budget + job_init));
    const auto work_root = std::filesystem::temp_directory_path() / "maopt_bench_daemon";
    std::filesystem::remove_all(work_root);

    const auto job_spec = [&](std::size_t i, std::uint64_t seed_base) {
      serve::JobSpec spec;
      spec.name = "job-" + std::to_string(i);
      spec.tenant = "tenant-" + std::to_string(i);
      spec.problem = "quad";
      spec.algorithm = "Random";  // point-path: one simulation in flight per job
      spec.seed = seed_base + i;
      spec.simulation_budget = job_budget;
      spec.initial_samples = job_init;
      return spec;
    };

    double serial_rate = 0.0;
    {
      serve::DaemonConfig config;
      config.work_dir = (work_root / "serial").string();
      config.num_threads = daemon_threads;
      serve::OptDaemon daemon(config);
      daemon.add_problem("quad", problem);
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kJobs; ++i) {
        const serve::JobSpec spec = job_spec(i, 100);
        daemon.submit(spec);
        daemon.wait(spec.name);
      }
      serial_rate = total_sims / seconds_since(t0);
    }

    double concurrent_rate = 0.0;
    double fairness_ratio = 1.0;
    {
      serve::DaemonConfig config;
      config.work_dir = (work_root / "concurrent").string();
      config.num_threads = daemon_threads;
      config.scheduler.capacity = daemon_threads;  // route jobs through the DRR gate
      serve::OptDaemon daemon(config);
      for (std::size_t i = 0; i < kJobs; ++i)
        daemon.register_tenant("tenant-" + std::to_string(i), 1.0);
      daemon.add_problem("quad", problem);

      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kJobs; ++i) daemon.submit(job_spec(i, 200));

      // Sample per-tenant grant totals while the jobs contend: once every
      // tenant has consumed a couple of quanta, the worst max/min ratio seen
      // is the fairness figure (totals trivially equalize at completion —
      // every job has the same budget — so only the in-flight window counts).
      for (;;) {
        bool any_active = false;
        for (const auto& job : daemon.jobs()) any_active |= serve::is_active(job.state);
        if (!any_active) break;
        std::uint64_t lo = UINT64_MAX, hi = 0;
        for (const auto& [tenant, stat] : daemon.scheduler().stats()) {
          lo = std::min(lo, stat.granted_sims);
          hi = std::max(hi, stat.granted_sims);
        }
        if (lo >= 2 * daemon.scheduler().config().quantum)
          fairness_ratio = std::max(fairness_ratio, static_cast<double>(hi) /
                                                        static_cast<double>(lo));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      for (std::size_t i = 0; i < kJobs; ++i) daemon.wait("job-" + std::to_string(i));
      concurrent_rate = total_sims / seconds_since(t0);
    }
    std::filesystem::remove_all(work_root);

    const double daemon_speedup = concurrent_rate / serial_rate;
    std::printf("daemon, %zu jobs x %zu sims: serial %.0f, concurrent %.0f sims/s (%.1fx), "
                "fairness ratio %.2f\n",
                kJobs, job_budget + job_init, serial_rate, concurrent_rate, daemon_speedup,
                fairness_ratio);
    metrics.push_back({"daemon_serial_sims_per_s", serial_rate, "sims/s"});
    metrics.push_back({"daemon_concurrent_sims_per_s", concurrent_rate, "sims/s"});
    metrics.push_back({"daemon_concurrency_speedup", daemon_speedup, "x"});
    metrics.push_back({"daemon_fairness_ratio", fairness_ratio, "x"});
    if (daemon_speedup < 3.0)
      std::fprintf(stderr, "warning: daemon_concurrency_speedup %.2fx below the 3x bar\n",
                   daemon_speedup);
    if (fairness_ratio > 2.0)
      std::fprintf(stderr, "warning: daemon_fairness_ratio %.2fx above the 2x bar\n",
                   fairness_ratio);
  }

  // --- 5) raw in-tree simulator hot path (real circuit, no synthetic cost) ---
  // Interleaved A/B: every path is timed once per round and the best round
  // wins, so background load hits all paths alike instead of whichever ran
  // last.
  {
    using linalg::Vec;
    const auto raw_evals = static_cast<std::size_t>(args.get_int("raw-evals", smoke ? 4 : 24));
    const int rounds = smoke ? 2 : 5;

    ckt::TwoStageOta ota;
    const Vec x0 = ota.clip({1.0, 1.0, 1.0, 0.5, 0.5, 20, 10, 5, 40, 20, 2.0, 500, 1000, 4, 4, 4});
    // Distinct neighbours of x0 so the batch path cannot coalesce them.
    std::vector<Vec> raw_designs;
    for (std::size_t i = 0; i < raw_evals; ++i) {
      Vec xi = x0;
      xi[10] += 0.01 * static_cast<double>(i);
      raw_designs.push_back(ota.clip(xi));
    }

    const auto session = ota.make_session();
    session->evaluate(x0);  // warm-up: builds the persistent benches

    double point_rate = 0.0, session_rate = 0.0, batch_rate = 0.0;
    for (int r = 0; r < rounds; ++r) {
      auto t0 = Clock::now();
      for (const auto& x : raw_designs) ota.evaluate(x);
      point_rate = std::max(point_rate, static_cast<double>(raw_evals) / seconds_since(t0));

      t0 = Clock::now();
      for (const auto& x : raw_designs) session->evaluate(x);
      session_rate = std::max(session_rate, static_cast<double>(raw_evals) / seconds_since(t0));

      eval::EvalServiceConfig raw_config;
      raw_config.num_threads = threads;
      eval::EvalService raw_service(ota, raw_config);  // fresh memory-only cache per round
      t0 = Clock::now();
      raw_service.evaluate_batch(raw_designs, nullptr);
      batch_rate = std::max(batch_rate, static_cast<double>(raw_evals) / seconds_since(t0));
    }
    std::printf("raw simulator, %zu evals x %d rounds: point %.0f, session %.0f (%.2fx), "
                "batch %.0f sims/s\n",
                raw_evals, rounds, point_rate, session_rate, session_rate / point_rate,
                batch_rate);
    metrics.push_back({"raw_point_sims_per_s", point_rate, "sims/s"});
    metrics.push_back({"raw_session_sims_per_s", session_rate, "sims/s"});
    metrics.push_back({"raw_session_speedup", session_rate / point_rate, "x"});
    metrics.push_back({"raw_batch_sims_per_s", batch_rate, "sims/s"});
  }

  // --- 6) per-layer micro metrics on a shared MOSFET testbench ---
  {
    using namespace maopt::spice;
    Netlist net;
    const int vdd = net.node("vdd");
    const int in = net.node("in");
    const int out = net.node("out");
    net.add<VSource>(vdd, kGround, Waveform::dc(1.8));
    auto* vin = net.add<VSource>(in, kGround, Waveform::dc(0.7), 1.0);
    net.add<Resistor>(vdd, out, 5e3);
    net.add<Mosfet>(out, in, kGround, kGround, MosModel::nmos_180(), 20e-6, 1e-6);
    net.add<Capacitor>(out, kGround, 1e-12);
    net.prepare();

    // Newton effort: a 33-point DC sweep with guess chaining, counted by the
    // analysis workspace.
    DcAnalysis dc;
    linalg::Vec guess;
    for (int k = 0; k < 33; ++k) {
      vin->set_dc(0.4 + 0.6 * static_cast<double>(k) / 32.0);
      const DcResult pt = dc.solve(net, guess.empty() ? nullptr : &guess);
      if (pt.converged) guess = pt.x;
    }
    vin->set_dc(0.7);
    const double iters_per_solve = static_cast<double>(dc.workspace().iterations) /
                                   static_cast<double>(dc.workspace().solves);
    metrics.push_back({"newton_iterations_per_solve", iters_per_solve, "iters"});

    // Factor/solve split at a representative MNA size: full
    // assemble+factor+solve cycles vs back-substitutions against a held
    // factorization.
    const std::size_t n = 24;
    Rng lu_rng(7);
    linalg::Mat a(n, n);
    for (auto& v : a.data()) v = lu_rng.uniform(-1, 1);
    for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n) + 2.0;
    std::vector<double> b(n, 1.0), xs;
    linalg::LuWorkReal ws;
    const int lu_reps = smoke ? 2000 : 20000;
    double factor_rate = 0.0, resolve_rate = 0.0;
    for (int r = 0; r < (smoke ? 2 : 5); ++r) {
      auto t0 = Clock::now();
      for (int i = 0; i < lu_reps; ++i) {
        ws.matrix() = a;
        linalg::lu_factor(ws);
        linalg::lu_solve_factored(ws, b, xs);
      }
      factor_rate = std::max(factor_rate, lu_reps / seconds_since(t0));
      t0 = Clock::now();
      for (int i = 0; i < lu_reps; ++i) linalg::lu_solve_factored(ws, b, xs);
      resolve_rate = std::max(resolve_rate, lu_reps / seconds_since(t0));
    }
    metrics.push_back({"lu_factor_solve_per_s", factor_rate, "ops/s"});
    metrics.push_back({"lu_resolve_per_s", resolve_rate, "ops/s"});
    metrics.push_back({"lu_reuse_speedup", resolve_rate / factor_rate, "x"});

    // AC layer: hot-path sweep rate and the shared-factorization multi-rhs
    // win (three excitations, the OTA measurement trio's shape).
    const DcResult op = dc.solve(net);
    AcAnalysis ac;
    const auto freqs = log_frequency_grid(1.0, 10e9, 10);
    CVec rhs;
    net.build_ac_rhs(rhs);
    const std::vector<CVec> excitations(3, rhs);
    const int ac_reps = smoke ? 20 : 200;
    double ac_rate = 0.0, multi3_rate = 0.0, single3_rate = 0.0;
    for (int r = 0; r < (smoke ? 2 : 5); ++r) {
      auto t0 = Clock::now();
      for (int i = 0; i < ac_reps; ++i) ac.run(net, op.x, freqs);
      const double sweep_s = seconds_since(t0);
      ac_rate = std::max(ac_rate, static_cast<double>(freqs.size()) * ac_reps / sweep_s);
      single3_rate = std::max(single3_rate, ac_reps / (3.0 * sweep_s));
      t0 = Clock::now();
      for (int i = 0; i < ac_reps; ++i) ac.run_multi(net, op.x, freqs, excitations);
      multi3_rate = std::max(multi3_rate, ac_reps / seconds_since(t0));
    }
    metrics.push_back({"ac_sweep_points_per_s", ac_rate, "points/s"});
    metrics.push_back({"ac_multi_rhs_speedup", multi3_rate / single3_rate, "x"});
    std::printf("layers: %.2f newton iters/solve, LU reuse %.1fx, AC %.0f points/s "
                "(multi-rhs %.2fx)\n",
                iters_per_solve, resolve_rate / factor_rate, ac_rate,
                multi3_rate / single3_rate);
  }

  bench::write_bench_json(json_path, metrics);
  return 0;
}
