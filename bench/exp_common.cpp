#include "exp_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace maopt::bench {

std::string history_digest(const core::RunHistory& history) {
  // The folds hash raw bytes, not hash_design: failed simulations carry NaN
  // metrics, and those bits belong in the digest too.
  std::uint64_t h[2] = {kHashSeed, 0x9AE16A3B2F90404FULL};
  for (std::uint64_t& v : h) {
    v = hash_u64(history.records.size(), v);
    for (const core::SimRecord& r : history.records) {
      for (const linalg::Vec* vec : {&r.x, &r.metrics}) {
        v = hash_u64(vec->size(), v);
        v = hash_bytes(vec->data(), vec->size() * sizeof(double), v);
      }
    }
  }
  char hex[33];
  std::snprintf(hex, sizeof hex, "%016llx%016llx", static_cast<unsigned long long>(h[0]),
                static_cast<unsigned long long>(h[1]));
  return hex;
}

std::vector<std::unique_ptr<core::Optimizer>> paper_roster() {
  std::vector<std::unique_ptr<core::Optimizer>> roster;
  roster.push_back(std::make_unique<gp::BoOptimizer>());
  roster.push_back(std::make_unique<core::MaOptimizer>(core::MaOptConfig::dnn_opt()));
  roster.push_back(std::make_unique<core::MaOptimizer>(core::MaOptConfig::ma_opt1()));
  roster.push_back(std::make_unique<core::MaOptimizer>(core::MaOptConfig::ma_opt2()));
  roster.push_back(std::make_unique<core::MaOptimizer>(core::MaOptConfig::ma_opt()));
  return roster;
}

std::vector<AlgoSummary> run_comparison(const ckt::SizingProblem& problem,
                                        std::vector<std::unique_ptr<core::Optimizer>> roster,
                                        const ExperimentConfig& config) {
  std::vector<AlgoSummary> summaries(roster.size());
  std::vector<std::vector<double>> final_foms(roster.size());
  std::vector<std::vector<std::vector<double>>> trajectories(roster.size());

  for (std::size_t a = 0; a < roster.size(); ++a) {
    summaries[a].name = roster[a]->name();
    summaries[a].runs = static_cast<int>(config.runs);
  }

  // Every run is observed through the unified telemetry path: the RunReport
  // supplies the per-phase split and failure/retry counters for the tables,
  // the optional JSONL sink records the full event stream of the comparison.
  obs::RunReport report;
  obs::MulticastObserver observer;
  observer.add(&report);
  std::unique_ptr<obs::JsonlObserver> jsonl;
  if (!config.jsonl_path.empty()) {
    jsonl = std::make_unique<obs::JsonlObserver>(config.jsonl_path);
    observer.add(jsonl.get());
  }

  for (std::size_t run = 0; run < config.runs; ++run) {
    const std::uint64_t seed = config.seed0 + run;
    // Shared X_init for every method (paper protocol).
    Rng init_rng(derive_seed(seed, 0x1217));
    const auto initial = core::sample_initial_set(problem, config.init, init_rng);
    std::vector<linalg::Vec> rows;
    rows.reserve(initial.size());
    for (const auto& r : initial) rows.push_back(r.metrics);
    const auto fom = ckt::FomEvaluator::fit_reference(problem, rows);

    core::RunOptions options;
    options.simulation_budget = config.sims;
    options.observer = &observer;
    for (std::size_t a = 0; a < roster.size(); ++a) {
      log_info() << problem.spec().name << " run " << (run + 1) << "/" << config.runs << " "
                 << roster[a]->name();
      options.seed = seed;
      const core::RunHistory h = roster[a]->run(problem, initial, fom, options);
      if (config.digest) {
        std::printf("digest\t%s\t%s\t%zu\t%s\n", problem.spec().name.c_str(),
                    roster[a]->name().c_str(), run, history_digest(h).c_str());
        std::fflush(stdout);
      }
      auto& s = summaries[a];
      const core::SimRecord* bf = h.best_feasible();
      if (bf != nullptr) {
        ++s.successes;
        if (std::isnan(s.min_target) || bf->metrics[0] < s.min_target)
          s.min_target = bf->metrics[0];
      }
      final_foms[a].push_back(h.best_fom_after.back());
      trajectories[a].push_back(h.best_fom_after);
      const double runs_d = static_cast<double>(config.runs);
      s.avg_runtime_s += h.wall_seconds / runs_d;
      s.avg_train_s += h.train_seconds / runs_d;
      s.avg_sim_s += h.sim_seconds / runs_d;
      s.avg_ns_s += h.ns_seconds / runs_d;
      const obs::RunReport::Row& row = report.rows().back();
      s.avg_critic_s += row.phase(obs::Phase::CriticTrain) / runs_d;
      s.avg_actor_s += row.phase(obs::Phase::ActorTrain) / runs_d;
      s.avg_elite_s += row.phase(obs::Phase::EliteUpdate) / runs_d;
      s.failures += row.counters.failures;
      s.retries += row.counters.retries;
    }
  }

  for (std::size_t a = 0; a < roster.size(); ++a) {
    summaries[a].log10_avg_fom = std::log10(std::max(mean(final_foms[a]), 1e-12));
    summaries[a].avg_trajectory = rowwise_mean(trajectories[a]);
  }
  return summaries;
}

void print_table(const std::string& title, const std::string& target_label,
                 const std::vector<AlgoSummary>& summaries) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-28s", "Algorithm");
  for (const auto& s : summaries) std::printf("%12s", s.name.c_str());
  std::printf("\n%-28s", "Success rate");
  for (const auto& s : summaries) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%d/%d", s.successes, s.runs);
    std::printf("%12s", buf);
  }
  std::printf("\n%-28s", target_label.c_str());
  for (const auto& s : summaries) {
    if (std::isnan(s.min_target))
      std::printf("%12s", "-");
    else
      std::printf("%12.3f", s.min_target);
  }
  std::printf("\n%-28s", "log10(average FoM)");
  for (const auto& s : summaries) std::printf("%12.2f", s.log10_avg_fom);
  std::printf("\n%-28s", "Total runtime (s)");
  for (const auto& s : summaries) std::printf("%12.1f", s.avg_runtime_s);
  std::printf("\n%-28s", "  train (s)");
  for (const auto& s : summaries) std::printf("%12.1f", s.avg_train_s);
  std::printf("\n%-28s", "    critic train (s)");
  for (const auto& s : summaries) std::printf("%12.2f", s.avg_critic_s);
  std::printf("\n%-28s", "    actor train (s)");
  for (const auto& s : summaries) std::printf("%12.2f", s.avg_actor_s);
  std::printf("\n%-28s", "  simulate (s)");
  for (const auto& s : summaries) std::printf("%12.1f", s.avg_sim_s);
  std::printf("\n%-28s", "  near-sampling (s)");
  for (const auto& s : summaries) std::printf("%12.2f", s.avg_ns_s);
  std::printf("\n%-28s", "  elite update (s)");
  for (const auto& s : summaries) std::printf("%12.2f", s.avg_elite_s);
  std::printf("\n%-28s", "Failed simulations");
  for (const auto& s : summaries) std::printf("%12llu", static_cast<unsigned long long>(s.failures));
  std::printf("\n%-28s", "Simulator retries");
  for (const auto& s : summaries) std::printf("%12llu", static_cast<unsigned long long>(s.retries));
  std::printf("\n");
}

void print_parameter_table(const ckt::SizingProblem& problem) {
  std::printf("\n--- Design parameters: %s (%zu-dim) ---\n", problem.spec().name.c_str(),
              problem.dim());
  const auto names = problem.parameter_names();
  std::printf("%-8s%14s%14s%10s\n", "Param", "Lower", "Upper", "Integer");
  for (std::size_t i = 0; i < problem.dim(); ++i)
    std::printf("%-8s%14g%14g%10s\n", names[i].c_str(), problem.lower_bounds()[i],
                problem.upper_bounds()[i], problem.integer_mask()[i] ? "yes" : "no");
  std::printf("Target: minimize %s (%s); %zu constraints:\n", problem.spec().target_name.c_str(),
              problem.spec().target_unit.c_str(), problem.spec().constraints.size());
  for (const auto& c : problem.spec().constraints)
    std::printf("  %-16s %s %g %s\n", c.name.c_str(),
                c.kind == ckt::ConstraintKind::GreaterEqual ? ">=" : "<=", c.bound,
                c.unit.c_str());
}

void write_trajectories_csv(const std::string& path, const std::vector<AlgoSummary>& summaries) {
  if (path.empty()) return;
  std::ofstream out(path);
  out << "simulation";
  for (const auto& s : summaries) out << "," << s.name;
  out << "\n";
  std::size_t n = 0;
  for (const auto& s : summaries) n = std::max(n, s.avg_trajectory.size());
  for (std::size_t i = 0; i < n; ++i) {
    out << (i + 1);
    for (const auto& s : summaries) {
      out << ",";
      if (i < s.avg_trajectory.size())
        out << std::log10(std::max(s.avg_trajectory[i], 1e-12));
    }
    out << "\n";
  }
  std::printf("wrote %s\n", path.c_str());
}

void print_ascii_fom_plot(const std::vector<AlgoSummary>& summaries) {
  // Rows: log10(FoM) bins; columns: simulation index downsampled to 72 cols.
  constexpr int kCols = 72, kRows = 16;
  std::size_t n = 0;
  double lo = 1e300, hi = -1e300;
  for (const auto& s : summaries) {
    n = std::max(n, s.avg_trajectory.size());
    for (const double v : s.avg_trajectory) {
      const double l = std::log10(std::max(v, 1e-12));
      lo = std::min(lo, l);
      hi = std::max(hi, l);
    }
  }
  if (n == 0 || !(hi > lo)) return;
  std::vector<std::string> canvas(kRows, std::string(kCols, ' '));
  const char* marks = "BD12M";  // BO, DNN-Opt, MA-Opt1, MA-Opt2, MA-Opt
  for (std::size_t a = 0; a < summaries.size(); ++a) {
    const auto& t = summaries[a].avg_trajectory;
    for (int c = 0; c < kCols; ++c) {
      const std::size_t i = std::min(t.size() - 1, t.size() * static_cast<std::size_t>(c) / kCols);
      const double l = std::log10(std::max(t[i], 1e-12));
      int r = static_cast<int>((hi - l) / (hi - lo) * (kRows - 1));
      r = std::clamp(r, 0, kRows - 1);
      canvas[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] =
          marks[a % 5];
    }
  }
  std::printf("\nlog10(average best FoM) vs simulations  [B=BO D=DNN-Opt 1=MA-Opt1 2=MA-Opt2 M=MA-Opt]\n");
  std::printf("%6.2f +%s\n", hi, std::string(kCols, '-').c_str());
  for (int r = 0; r < kRows; ++r) std::printf("       |%s\n", canvas[static_cast<std::size_t>(r)].c_str());
  std::printf("%6.2f +%s\n", lo, std::string(kCols, '-').c_str());
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t colon = line.find(':');
    if (line.rfind("model name", 0) != 0 || colon == std::string::npos) continue;
    const std::size_t start = line.find_first_not_of(" \t", colon + 1);
    if (start != std::string::npos) return line.substr(start);
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return "Clang " __clang_version__;
#elif defined(__GNUC__)
  return "GCC " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

void write_bench_json(const std::string& path, const std::vector<BenchMetric>& metrics) {
  if (path.empty()) return;
  std::ofstream out(path);
  // Names, units and host strings are escaped for the two characters that
  // could break the quoting.
  auto escaped = [](const std::string& s) {
    std::string e;
    for (const char c : s) {
      if (c == '"' || c == '\\') e.push_back('\\');
      e.push_back(c);
    }
    return e;
  };
  out << "{\n  \"host\": {\"nproc\": " << std::thread::hardware_concurrency() << ", \"cpu\": \""
      << escaped(cpu_model()) << "\", \"compiler\": \"" << escaped(compiler())
      << "\", \"build_type\": \"" << escaped(MAOPT_BUILD_TYPE) << "\"}";
  if (!metrics.empty()) out << ",";
  out << "\n";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.6g", metrics[i].value);
    out << "  \"" << escaped(metrics[i].name) << "\": {\"value\": " << value << ", \"unit\": \""
        << escaped(metrics[i].unit) << "\"}";
    if (i + 1 < metrics.size()) out << ",";
    out << "\n";
  }
  out << "}\n";
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return;
  }
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace maopt::bench
