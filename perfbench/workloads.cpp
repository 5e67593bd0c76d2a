#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <thread>

#include "circuits/fom.hpp"
#include "circuits/ldo_regulator.hpp"
#include "circuits/robust_problem.hpp"
#include "circuits/two_stage_ota.hpp"
#include "common/rng.hpp"
#include "core/ma_optimizer.hpp"
#include "deck/deck_problem.hpp"
#include "eval/eval_service.hpp"
#include "obs/jsonl_writer.hpp"
#include "probes.hpp"
#include "serve/daemon.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using maopt::Rng;
using maopt::derive_seed;
using maopt::linalg::Vec;
namespace ckt = maopt::ckt;
namespace core = maopt::core;
namespace eval = maopt::eval;
namespace serve = maopt::serve;

namespace {

// paper_ota: the paper's OTA protocol (Table II): 100 initial designs, then
// 200 budgeted simulations of MA-Opt (3 actors, shared elite set, NS).
// Repetitions alternate between the instance drawn from --seed and a fixed
// reference instance, whose trajectory is the same for every seed.
constexpr std::size_t kOtaInitial = 100;
constexpr std::size_t kOtaBudget = 200;
constexpr std::uint64_t kReferenceSeed = 6;
constexpr int kOtaSetupsPerRepetition = 3;

// Set-ups sampled when a yield_mc or daemon_jobs process starts.
constexpr int kSetupRepeats = 15;

// yield_mc: 100 candidate designs, each checked over the same 64 mismatch
// instances through one memory-only EvalService with 4 workers. The
// candidates are perturbations (within +-5% per parameter, drawn from
// --seed) of a feasible OTA design MA-Opt found, so every variant converges;
// the centre itself is checked first.
constexpr std::size_t kCandidates = 100;
constexpr int kInstances = 64;
constexpr double kSpread = 0.05;
constexpr std::uint64_t kMismatchSeed = 0x3C3C;  // one fixed set of 64 mismatch instances
constexpr int kWarmPasses = 10;
const Vec kCentre = {0.5436, 1.817, 0.6572, 0.3098, 0.7989, 101.9, 120.8, 56.06,
                     40.42,  77.48, 35.08,  248.4,  4183.0, 5,     8,     10};

constexpr std::size_t kWorkers = 4;  // never more than nproc on the reference host

// daemon_jobs: budgets sized so each job alone takes about as long as the
// others, so no single job sets the makespan. perfbench/README.md records
// the solo and shared run times this sizing rests on.
constexpr std::size_t kDeckBudget = 95;
constexpr std::size_t kDeBudget = 1750;
constexpr std::size_t kLdoBudget = 130;
constexpr std::size_t kJobInitial = 40;

/// Runs `rep(traced, index)` until `spec.seconds` have passed and the
/// number of repetitions is a multiple of `group`, then, when tracing, the
/// same again traced.
template <class Rep>
std::vector<Sample> repeat_for(const RunSpec& spec, std::size_t group, Rep&& rep) {
  std::vector<Sample> samples;
  for (const bool traced : {false, true}) {
    if (traced && !spec.trace) break;
    const auto start = Clock::now();
    std::size_t index = 0;
    do {
      samples.push_back(rep(traced, index++));
      samples.back().traced = traced;
    } while (seconds_since(start) < spec.seconds || index % group != 0);
  }
  return samples;
}

/// Simulator-call durations from call `first` to call `last`, and failures.
void put_sim_calls(Sample& sample, const SimClock& clock, std::size_t first, std::size_t last,
                   std::uint64_t failed_before) {
  const std::vector<double> all = clock.durations();
  sample.series["sim_s"].assign(all.begin() + static_cast<std::ptrdiff_t>(first),
                                all.begin() + static_cast<std::ptrdiff_t>(last));
  sample.values["sim_failed"] = static_cast<double>(clock.failed() - failed_before);
}

void put_counters(Sample& sample, const eval::EvalCounters& c) {
  sample.values["eval_requested"] = static_cast<double>(c.requested);
  sample.values["eval_hits"] = static_cast<double>(c.hits);
  sample.values["eval_misses"] = static_cast<double>(c.misses);
  sample.values["eval_coalesced"] = static_cast<double>(c.coalesced);
  sample.values["eval_simulations"] = static_cast<double>(c.simulations);
}

eval::EvalCounters operator-(const eval::EvalCounters& a, const eval::EvalCounters& b) {
  return {a.requested - b.requested, a.hits - b.hits, a.misses - b.misses,
          a.coalesced - b.coalesced, a.simulations - b.simulations};
}

/// FLOPs of one training round, from the layer sizes, batch size and steps
/// per round. For layer products P_i = n_i * n_{i+1}: a forward pass costs
/// 2B*sum(P), weight gradients 2B*sum(P), input gradients 2B*(sum(P) - P_0)
/// (nothing flows into the first layer's input). An actor step also runs the
/// critic forward and back to its input (2B*sum(P_critic) each way).
void put_training_flops(Sample& sample, const core::MaOptConfig& config, std::size_t dim,
                        std::size_t num_metrics) {
  auto products = [](std::size_t in, const std::vector<std::size_t>& hidden, std::size_t out) {
    std::vector<std::size_t> sizes = {in};
    sizes.insert(sizes.end(), hidden.begin(), hidden.end());
    sizes.push_back(out);
    double sum = 0.0;
    for (std::size_t i = 0; i + 1 < sizes.size(); ++i)
      sum += static_cast<double>(sizes[i] * sizes[i + 1]);
    return std::pair{sum, static_cast<double>(sizes[0] * sizes[1])};
  };
  const auto [critic_sum, critic_first] = products(2 * dim, config.critic.hidden, num_metrics);
  const auto [actor_sum, actor_first] = products(dim, config.actor.hidden, dim);
  const double critic_batch = 2.0 * static_cast<double>(config.critic.batch_size);
  const double actor_batch = 2.0 * static_cast<double>(config.actor.batch_size);
  sample.values["critic_flops_per_round"] = config.num_critics * config.critic.steps_per_round *
                                            critic_batch * (3.0 * critic_sum - critic_first);
  sample.values["actor_flops_per_round"] =
      config.actor.steps_per_round * actor_batch * (3.0 * actor_sum - actor_first + 2.0 * critic_sum);
}

}  // namespace

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::vector<Sample> run_paper_ota(const RunSpec& spec) {
  // Set-up: the initial set and the FoM fit on `problem`.
  auto set_up = [](const ckt::SizingProblem& problem, std::uint64_t seed) {
    Rng init_rng(derive_seed(seed, 0x1217));
    std::vector<core::SimRecord> initial = core::sample_initial_set(problem, kOtaInitial, init_rng);
    std::vector<Vec> rows;
    for (const auto& record : initial) rows.push_back(record.metrics);
    ckt::FomEvaluator fom = ckt::FomEvaluator::fit_reference(problem, rows);
    return std::pair{std::move(initial), std::move(fom)};
  };
  return repeat_for(spec, 2, [&](bool traced, std::size_t index) {
    Sample sample;
    const bool reference = index % 2 == 1;
    const std::uint64_t seed = reference ? kReferenceSeed : spec.seed;
    sample.values["reference"] = reference ? 1.0 : 0.0;

    // Set-up time is sampled kOtaSetupsPerRepetition times before each
    // untraced repetition, each on a fresh OTA and optimizer, so the samples
    // span the whole run: host speed drifts over seconds, and a burst of
    // samples at start-up moves with it. All samples set up the reference
    // instance, whose 100 designs cost the same to simulate in every run.
    for (int k = 0; !traced && k < kOtaSetupsPerRepetition; ++k) {
      const auto setup_start = Clock::now();
      ckt::TwoStageOta ota;
      set_up(ota, kReferenceSeed);
      const core::MaOptimizer optimizer(core::MaOptConfig::ma_opt());
      sample.series["setup_s"].push_back(seconds_since(setup_start));
    }

    ckt::TwoStageOta ota;
    SimClock clock;
    std::optional<TimedProblem> timed;
    if (traced) timed.emplace(ota, clock);
    const ckt::SizingProblem& problem = traced ? static_cast<const ckt::SizingProblem&>(*timed) : ota;
    const auto [initial, fom] = set_up(problem, seed);
    core::MaOptimizer optimizer(core::MaOptConfig::ma_opt());
    const std::size_t initial_calls = clock.durations().size();

    const auto run_start = Clock::now();
    RunClock run_clock(run_start);
    maopt::obs::MulticastObserver observer({&run_clock});
    std::optional<maopt::obs::JsonlObserver> jsonl;
    if (traced) {
      const std::string path = spec.work_dir + "/paper_ota-" + std::to_string(index) + ".jsonl";
      fs::remove(path);
      jsonl.emplace(path);
      observer.add(&*jsonl);
      sample.notes["jsonl"] = path;
    }
    core::RunOptions options;
    options.seed = derive_seed(seed, 0x0A);
    options.simulation_budget = kOtaBudget;
    options.observer = &observer;
    const core::RunHistory history = optimizer.run(problem, initial, fom, options);
    sample.values["timed_s"] = seconds_since(run_start);

    std::size_t failed = 0;
    for (std::size_t i = history.num_initial; i < history.records.size(); ++i)
      if (!history.records[i].simulation_ok) ++failed;
    sample.values["sims"] = static_cast<double>(history.simulations_used());
    sample.values["failed"] = static_cast<double>(failed);
    sample.values["feasible"] = history.best_feasible() != nullptr ? 1.0 : 0.0;
    sample.values["time_to_feasible_s"] = run_clock.first_feasible_s();
    sample.values["best_fom"] = history.best_fom_after.empty() ? -1.0 : history.best_fom_after.back();
    sample.series["iteration_s"] = run_clock.iteration_s();
    sample.series["trajectory"] = history.best_fom_after;
    if (traced) {
      put_sim_calls(sample, clock, initial_calls, clock.durations().size(), 0);
      put_training_flops(sample, optimizer.config(), ota.dim(), ota.num_metrics());
    }
    return sample;
  });
}

std::vector<Sample> run_yield_mc(const RunSpec& spec) {
  return repeat_for(spec, 1, [&](bool traced, std::size_t index) {
    Sample sample;
    ckt::TwoStageOta ota;
    SimClock clock;
    std::optional<TimedProblem> timed;
    if (traced) timed.emplace(ota, clock);
    const ckt::SizingProblem& base = traced ? static_cast<const ckt::SizingProblem&>(*timed) : ota;

    Rng rng(derive_seed(spec.seed, 0xCA));
    auto perturbed = [&] {
      Vec x = kCentre;
      for (double& v : x) v *= 1.0 + rng.uniform(-kSpread, kSpread);
      return ota.clip(std::move(x));
    };
    std::vector<Vec> candidates = {kCentre};
    while (candidates.size() < kCandidates) candidates.push_back(perturbed());
    const Vec warm_up = perturbed();

    // Set-up: the service, the yield problem and one warm-up sweep on a
    // design outside the candidate set, so the service's lazy worker pool
    // exists before timing starts and no candidate hits. Set-up time is
    // sampled kSetupRepeats times in the first repetition, keeping the last.
    struct Stack {
      std::unique_ptr<eval::EvalService> service;
      std::unique_ptr<ckt::YieldProblem> yield;
    };
    const bool sampled = !traced && index == 0;
    auto set_up = [&] {
      const auto setup_start = Clock::now();
      eval::EvalServiceConfig service_config;
      service_config.num_threads = kWorkers;
      service_config.memory_capacity = 2 * (kCandidates + 1) * kInstances;  // the warm pass hits
      Stack stack;
      stack.service = std::make_unique<eval::EvalService>(base, service_config);
      ckt::YieldConfig yield_config;
      yield_config.mismatch.sigma_vth = 0.010;
      yield_config.mismatch.sigma_kp_rel = 0.03;
      yield_config.mismatch.instances = kInstances;
      yield_config.mismatch.seed_base = kMismatchSeed;
      stack.yield = std::make_unique<ckt::YieldProblem>(*stack.service, yield_config);
      stack.yield->evaluate(warm_up);
      if (sampled) sample.series["setup_s"].push_back(seconds_since(setup_start));
      return stack;
    };
    for (int k = 1; sampled && k < kSetupRepeats; ++k) set_up();
    const Stack stack = set_up();
    const eval::EvalService& service = *stack.service;
    const ckt::YieldProblem& yield = *stack.yield;

    const eval::EvalCounters counters_start = service.counters();
    const ckt::SweepStats stats_start = yield.stats();
    const std::size_t calls_start = clock.durations().size();
    const std::uint64_t failed_start = clock.failed();

    // Cold pass: every variant is simulated. Then warm passes over the same
    // candidates, which the service must answer from its cache.
    std::vector<Vec> rows;
    double checks_failed = 0.0;
    const auto cold_start = Clock::now();
    for (const Vec& x : candidates) {
      const auto check_start = Clock::now();
      const ckt::EvalResult result = yield.evaluate(x);
      sample.series["sweep_s"].push_back(seconds_since(check_start));
      if (!result.simulation_ok || result.variants_total != kInstances || result.variants_failed != 0)
        checks_failed += 1.0;
      rows.push_back(result.metrics);
    }
    sample.values["timed_s"] = seconds_since(cold_start);
    const eval::EvalCounters counters_cold = service.counters();
    const std::size_t calls_cold = clock.durations().size();

    // A warm pass takes tens of milliseconds, so one scheduling hiccup can
    // double it: each repetition times kWarmPasses of them. A warm check
    // fails unless all its variants were cache hits.
    auto& warm_trajectory = sample.series["warm_trajectory"];
    for (int pass = 0; pass < kWarmPasses; ++pass) {
      const auto warm_start = Clock::now();
      for (const Vec& x : candidates) {
        const std::uint64_t hits_before = service.counters().hits;
        const ckt::EvalResult result = yield.evaluate(x);
        if (service.counters().hits - hits_before != kInstances) checks_failed += 1.0;
        if (pass == 0)
          warm_trajectory.insert(warm_trajectory.end(), result.metrics.begin(), result.metrics.end());
      }
      sample.series["warm_pass_s"].push_back(seconds_since(warm_start));
    }
    const eval::EvalCounters warm = service.counters() - counters_cold;

    // Quality: the FoM of the centre's yield aggregate, against the centre's
    // own target value (so 0.01 plus the constraint penalties).
    const ckt::FomEvaluator fom(ota, rows.front()[0]);
    sample.values["best_fom"] = fom(rows.front());
    auto& trajectory = sample.series["trajectory"];
    for (const Vec& row : rows) trajectory.insert(trajectory.end(), row.begin(), row.end());

    const ckt::SweepStats stats = yield.stats();
    sample.values["checks"] = static_cast<double>((1 + kWarmPasses) * kCandidates);
    sample.values["warm_passes"] = kWarmPasses;
    sample.values["sims"] = static_cast<double>(kCandidates * kInstances);
    sample.values["failed"] = checks_failed;
    sample.values["sweeps"] = static_cast<double>(stats.sweeps - stats_start.sweeps);
    sample.values["variants_ok"] = static_cast<double>(stats.variants_ok - stats_start.variants_ok);
    sample.values["variants_failed"] =
        static_cast<double>(stats.variants_failed - stats_start.variants_failed);
    put_counters(sample, service.counters() - counters_start);
    sample.values["warm_requested"] = static_cast<double>(warm.requested);
    sample.values["warm_hits"] = static_cast<double>(warm.hits);
    sample.values["workers"] = static_cast<double>(kWorkers);
    if (traced) put_sim_calls(sample, clock, calls_start, calls_cold, failed_start);
    return sample;
  });
}

std::vector<Sample> run_daemon_jobs(const RunSpec& spec) {
  return repeat_for(spec, 1, [&](bool traced, std::size_t index) {
    Sample sample;
    const std::string dir =
        spec.work_dir + "/daemon-" + (traced ? "traced-" : "") + std::to_string(index);
    const std::string deck = spec.inputs_dir + "/five_transistor_ota.cir";
    const std::string deck_spec = spec.inputs_dir + "/five_transistor_ota.spec";
    ckt::TwoStageOta ota;
    ckt::LdoRegulator ldo;
    SimClock clock;
    std::optional<maopt::deck::DeckProblem> compiled;
    std::optional<TimedProblem> timed_ota, timed_ldo, timed_deck;

    // Set-up: daemon construction, deck compile, problem and tenant
    // registration. A daemon is set up once, when its process starts, so
    // set-up time is sampled in the first repetition, before any job ran:
    // kSetupRepeats daemons in fresh directories, keeping the last. Later
    // set-ups in the same process run 2-3x slower, on a heap the jobs left.
    const bool sampled = !traced && index == 0;
    auto set_up = [&](const std::string& work_dir) {
      fs::remove_all(work_dir);
      const auto setup_start = Clock::now();
      serve::DaemonConfig daemon_config;
      daemon_config.work_dir = work_dir;
      daemon_config.num_threads = kWorkers;
      daemon_config.scheduler.capacity = kWorkers;
      auto daemon = std::make_unique<serve::OptDaemon>(daemon_config);
      const auto compile_start = Clock::now();
      if (traced) {
        // The timing decorator has to sit under the deck's service, so the
        // deck is compiled here and registered like any other problem.
        compiled.emplace(maopt::deck::DeckProblem::from_files(deck, deck_spec));
        sample.values["compile_s"] = seconds_since(compile_start);
        timed_deck.emplace(*compiled, clock);
        timed_ota.emplace(ota, clock);
        timed_ldo.emplace(ldo, clock);
        daemon->add_problem("ota5", *timed_deck);
        daemon->add_problem("ota", *timed_ota);
        daemon->add_problem("ldo", *timed_ldo);
      } else {
        daemon->add_deck("ota5", deck, deck_spec);
        sample.values["compile_s"] = seconds_since(compile_start);
        daemon->add_problem("ota", ota);
        daemon->add_problem("ldo", ldo);
      }
      for (const char* tenant : {"analog", "baseline", "power"}) daemon->register_tenant(tenant);
      // One probe simulation per problem, in the default cache namespace the
      // tenants' jobs never read: each service builds its first session, so
      // the daemon is ready to serve when set-up ends.
      for (const char* problem : {"ota5", "ota", "ldo"}) {
        const eval::EvalService& service = daemon->service(problem);
        Vec centre = service.lower_bounds();
        for (std::size_t i = 0; i < centre.size(); ++i)
          centre[i] = 0.5 * (centre[i] + service.upper_bounds()[i]);
        if (!service.evaluate(service.clip(centre)).simulation_ok) sample.values["probe_failed"] = 1.0;
      }
      if (sampled) sample.series["setup_s"].push_back(seconds_since(setup_start));
      return daemon;
    };
    for (int k = 1; sampled && k < kSetupRepeats; ++k) set_up(dir + "-setup" + std::to_string(k));
    const std::unique_ptr<serve::OptDaemon> owned = set_up(dir);
    serve::OptDaemon& daemon = *owned;
    const std::size_t calls_start = clock.durations().size();  // after the set-up probes
    const std::uint64_t failed_start = clock.failed();
    if (traced)
      put_training_flops(sample, core::MaOptConfig::ma_opt(), compiled->dim(), compiled->num_metrics());

    // The MA-Opt jobs always write their job event stream: the benchmark
    // reads iteration latency and time to feasible from it.
    auto job = [&](const std::string& name, const char* tenant, const char* problem,
                   const std::string& algorithm, std::size_t budget, std::uint64_t stream) {
      serve::JobSpec job_spec;
      job_spec.name = name;
      job_spec.tenant = tenant;
      job_spec.problem = problem;
      job_spec.algorithm = algorithm;
      // Only the random-search job draws its seed from --seed. MA-Opt and DE
      // converge to seed-dependent regions whose simulation cost and best
      // FoM differ widely, so they run fixed reference instances.
      job_spec.seed = derive_seed(algorithm == "Random" ? spec.seed : kReferenceSeed, stream);
      job_spec.simulation_budget = budget;
      job_spec.initial_samples = kJobInitial;
      if (algorithm == "MA-Opt") {
        job_spec.jsonl_path = dir + "/" + name + ".jsonl";
        sample.notes["jsonl." + name] = job_spec.jsonl_path;
      }
      return job_spec;
    };
    const std::vector<serve::JobSpec> cold = {
        job("ma_deck", "analog", "ota5", "MA-Opt", kDeckBudget, 0x11),
        job("de_ota", "baseline", "ota", "DE", kDeBudget, 0x12),
        job("random_ldo", "power", "ldo", "Random", kLdoBudget, 0x13),
    };

    // Closed loop: submit the three jobs at once, then wait for each on its
    // own thread so every completion time is observed when it happens.
    const auto cold_start = Clock::now();
    std::vector<double> done_s(cold.size(), 0.0);
    for (const serve::JobSpec& job_spec : cold) {
      const auto submit_start = Clock::now();
      daemon.submit(job_spec);
      sample.series["submit_s"].push_back(seconds_since(submit_start));
    }
    {
      std::vector<std::thread> waiters;
      for (std::size_t i = 0; i < cold.size(); ++i)
        waiters.emplace_back([&, i] {
          daemon.wait(cold[i].name);
          done_s[i] = seconds_since(cold_start);
        });
      for (std::thread& waiter : waiters) waiter.join();
    }
    sample.values["timed_s"] = *std::max_element(done_s.begin(), done_s.end());  // the makespan
    const std::size_t calls_cold = clock.durations().size();

    std::uintmax_t journal_bytes = 0;
    for (const auto& entry : fs::recursive_directory_iterator(dir))
      if (entry.is_regular_file() && entry.path().filename() == "eval_cache.bin")
        journal_bytes += entry.file_size();
    sample.values["journal_bytes"] = static_cast<double>(journal_bytes);

    // Warm re-submit of the MA-Opt job under a new name: same tenant, same
    // seed, so every request is served from the tenant's cache.
    const eval::EvalCounters before_warm = daemon.service("ota5").counters();
    const serve::JobSpec warm = job("ma_deck_warm", "analog", "ota5", "MA-Opt", kDeckBudget, 0x11);
    const auto warm_start = Clock::now();
    daemon.submit(warm);
    daemon.wait(warm.name);
    sample.values["warm_job_s"] = seconds_since(warm_start);
    const eval::EvalCounters warm_counters = daemon.service("ota5").counters() - before_warm;
    sample.values["warm_requested"] = static_cast<double>(warm_counters.requested);
    sample.values["warm_hits"] = static_cast<double>(warm_counters.hits);

    double cold_sims = 0.0, failed_jobs = 0.0;
    std::vector<std::pair<std::string, double>> jobs;
    for (std::size_t i = 0; i < cold.size(); ++i) jobs.emplace_back(cold[i].name, done_s[i]);
    jobs.emplace_back(warm.name, sample.values["warm_job_s"]);
    auto& trajectory = sample.series["trajectory"];
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const auto& [name, latency] = jobs[i];
      const serve::JobStatus status = daemon.status(name);
      if (status.state != serve::JobState::Done) failed_jobs += 1.0;
      if (i < cold.size()) cold_sims += static_cast<double>(status.simulations);
      sample.values["job_run_s." + name] = status.wall_seconds;
      sample.values["job_idle_s." + name] = latency - status.wall_seconds;
      sample.values["best_fom." + name] = status.best_fom;
      trajectory.insert(trajectory.end(), {status.best_fom, static_cast<double>(status.simulations),
                                           status.feasible ? 1.0 : 0.0});
    }
    sample.values["jobs"] = static_cast<double>(jobs.size());
    sample.values["sims"] = cold_sims;
    sample.values["failed"] = failed_jobs;
    sample.values["best_fom"] = sample.values["best_fom.ma_deck"];
    for (const auto& [tenant, stats] : daemon.scheduler().stats())
      if (!tenant.empty())
        sample.values["granted_sims." + tenant] = static_cast<double>(stats.granted_sims);
    put_counters(sample, daemon.service("ota5").counters());
    sample.values["workers"] = static_cast<double>(kWorkers);
    // The cold phase only: that is what the makespan covers.
    if (traced) put_sim_calls(sample, clock, calls_start, calls_cold, failed_start);
    return sample;
  });
}

}  // namespace perfbench
