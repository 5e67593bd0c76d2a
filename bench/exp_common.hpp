// Shared experiment harness for the table/figure reproduction benches.
//
// Reproduces the paper's protocol (Section III-A): per run seed, one initial
// set of N_init random designs is simulated once and shared by every
// algorithm; each algorithm then spends the same simulation budget. The
// paper uses 10 runs x 200 simulations x 100 initial designs; the default
// profile here is reduced so `for b in build/bench/*` terminates quickly on
// one core — pass --full (or --runs/--sims/--init) for the paper protocol.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "maopt.hpp"

namespace maopt::bench {

struct ExperimentConfig {
  std::size_t runs = 2;
  std::size_t sims = 80;
  std::size_t init = 40;
  bool full = false;
  std::uint64_t seed0 = 0;
  std::string csv_path;    ///< optional: per-simulation trajectories
  std::string jsonl_path;  ///< optional: telemetry event stream of every run

  static ExperimentConfig from_cli(const CliArgs& args) {
    ExperimentConfig c;
    c.full = args.get_bool("full");
    if (c.full) {
      c.runs = 10;
      c.sims = 200;
      c.init = 100;
    }
    c.runs = static_cast<std::size_t>(args.get_int("runs", static_cast<std::int64_t>(c.runs)));
    c.sims = static_cast<std::size_t>(args.get_int("sims", static_cast<std::int64_t>(c.sims)));
    c.init = static_cast<std::size_t>(args.get_int("init", static_cast<std::int64_t>(c.init)));
    c.seed0 = static_cast<std::uint64_t>(args.get_int("seed", 0));
    c.csv_path = args.get("csv", "");
    c.jsonl_path = args.get("jsonl", "");
    return c;
  }
};

/// Aggregate of one algorithm over all runs — one column of Table II/IV/VI.
struct AlgoSummary {
  std::string name;
  int successes = 0;
  int runs = 0;
  double min_target = std::numeric_limits<double>::quiet_NaN();  ///< over successful runs
  double log10_avg_fom = 0.0;
  double avg_runtime_s = 0.0;
  double avg_train_s = 0.0;
  double avg_sim_s = 0.0;
  double avg_ns_s = 0.0;
  // Telemetry-driven phase split (obs::RunReport, wall-clock summed over
  // lanes) — finer than the history timers: critic vs actor training and the
  // elite-set bookkeeping are separated.
  double avg_critic_s = 0.0;
  double avg_actor_s = 0.0;
  double avg_elite_s = 0.0;
  std::uint64_t failures = 0;  ///< failed simulations, total over runs
  std::uint64_t retries = 0;   ///< ResilientEvaluator retries, total over runs
  /// mean-over-runs best-FoM trajectory (per post-initial simulation).
  std::vector<double> avg_trajectory;
};

/// The paper's algorithm roster (Tables II/IV/VI).
std::vector<std::unique_ptr<core::Optimizer>> paper_roster();

/// Runs every optimizer in `roster` under the shared-initial-set protocol.
std::vector<AlgoSummary> run_comparison(const ckt::SizingProblem& problem,
                                        std::vector<std::unique_ptr<core::Optimizer>> roster,
                                        const ExperimentConfig& config);

/// Prints a Table II/IV/VI-style comparison.
void print_table(const std::string& title, const std::string& target_label,
                 const std::vector<AlgoSummary>& summaries);

/// Prints the parameter table (Table I/III/V-style).
void print_parameter_table(const ckt::SizingProblem& problem);

/// Writes per-simulation log10(avg FoM) trajectories as CSV.
void write_trajectories_csv(const std::string& path, const std::vector<AlgoSummary>& summaries);

/// Renders trajectories as a coarse ASCII plot (Fig. 5-style, log10 scale).
void print_ascii_fom_plot(const std::vector<AlgoSummary>& summaries);

/// One entry of a benchmark regression record (e.g. {"kernel_gflops", 12.3,
/// "GFLOP/s"}).
struct BenchMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Writes `metrics` to `path` as a flat JSON object
///   {"host": {...}, "<name>": {"value": <v>, "unit": "<unit>"}, ...}
/// so successive runs can be diffed for performance regressions
/// (BENCH_train.json is the training-hot-path record). "host" records the
/// machine and build: nproc, CPU model, compiler and build type.
void write_bench_json(const std::string& path, const std::vector<BenchMetric>& metrics);

}  // namespace maopt::bench
