// Compare the paper's algorithms head-to-head on one circuit with a shared
// initial population, printing the telemetry summary of each run — a
// miniature of the Table II/IV/VI + Fig. 5 experiment, driven entirely
// through the unified Optimizer::run(RunOptions) API.
//
//   ./examples/compare_optimizers [--circuit tia|ota] [--sims 60] [--seed 1]
//                                 [--jsonl run.jsonl] [--cache-dir DIR]
//                                 [--warm-start]
//
// With --cache-dir every simulation goes through an eval::EvalService backed
// by a persistent result journal in DIR: rerunning the same command yields
// cache hits (the hit/miss/coal columns of the table) and a bit-identical
// trajectory. --warm-start additionally seeds each run's initial set from
// the cached results of prior runs.
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <vector>

#include "maopt.hpp"

int main(int argc, char** argv) {
  using namespace maopt;
  const CliArgs args(argc, argv);
  if (args.has("help")) {
    std::printf(
        "usage: compare_optimizers [--circuit tia|ota] [--sims N] [--seed N]\n"
        "                          [--jsonl PATH] [--cache-dir DIR] [--warm-start]\n"
        "Runs the full algorithm roster on one circuit with a shared initial set.\n");
    return 0;
  }
  const auto sims = static_cast<std::size_t>(args.get_int("sims", 60));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::string jsonl_path = args.get("jsonl", "");
  const std::string cache_dir = args.get("cache-dir", "");
  const bool warm_start = args.has("warm-start");

  std::unique_ptr<ckt::SizingProblem> problem;
  if (args.get("circuit", "tia") == "ota")
    problem = std::make_unique<ckt::TwoStageOta>();
  else
    problem = std::make_unique<ckt::ThreeStageTia>();

  // With a cache dir the whole roster shares one EvalService (and one result
  // journal): later optimizers hit designs earlier ones already simulated.
  std::unique_ptr<serve::ServiceStack> stack;
  const ckt::SizingProblem* eval_target = problem.get();
  if (!cache_dir.empty() || warm_start) {
    eval::EvalServiceConfig service_config;
    service_config.cache_dir = cache_dir;
    stack = std::make_unique<serve::ServiceStack>(*problem, service_config);
    eval_target = &stack->service();
  }

  Rng rng(seed);
  auto initial = core::sample_initial_set(*eval_target, 40, rng);
  std::vector<linalg::Vec> rows;
  for (const auto& r : initial) rows.push_back(r.metrics);
  const auto fom = ckt::FomEvaluator::fit_reference(*problem, rows);

  std::vector<std::unique_ptr<core::Optimizer>> roster;
  roster.push_back(std::make_unique<core::RandomSearch>());
  roster.push_back(std::make_unique<core::PsoOptimizer>());
  roster.push_back(std::make_unique<core::DeOptimizer>());
  roster.push_back(std::make_unique<gp::BoOptimizer>());
  roster.push_back(std::make_unique<core::MaOptimizer>(core::MaOptConfig::dnn_opt()));
  roster.push_back(std::make_unique<core::MaOptimizer>(core::MaOptConfig::ma_opt2()));
  roster.push_back(std::make_unique<core::MaOptimizer>(core::MaOptConfig::ma_opt()));

  // One report across the whole roster gives one summary row per run; the
  // optional JSONL sink receives the full event stream of every run.
  obs::RunReport report;
  obs::MulticastObserver observer;
  observer.add(&report);
  std::unique_ptr<obs::JsonlObserver> jsonl;
  if (!jsonl_path.empty()) {
    jsonl = std::make_unique<obs::JsonlObserver>(jsonl_path);
    observer.add(jsonl.get());
  }

  core::RunOptions options;
  options.seed = seed;
  options.simulation_budget = sims;
  options.observer = &observer;

  std::printf("%s, %zu simulations each, shared initial set of %zu\n\n",
              problem->spec().name.c_str(), sims, initial.size());
  for (auto& opt : roster) {
    // Warm start: each run also starts from every result the journal holds
    // by then, including the earlier runs of this roster.
    std::vector<core::SimRecord> seeded = initial;
    if (warm_start) {
      std::vector<core::SimRecord> warm =
          core::warm_start_records(stack->service(), initial, *eval_target, fom, 256);
      seeded.insert(seeded.end(), std::make_move_iterator(warm.begin()),
                    std::make_move_iterator(warm.end()));
    }
    opt->run(*eval_target, seeded, fom, options);
  }

  std::printf("%s\n", report.table().c_str());
  if (stack != nullptr) {
    const eval::EvalService& service = stack->service();
    const auto c = service.counters();
    std::printf("eval service: %llu requested, %llu hits, %llu misses, %llu coalesced, "
                "%llu simulations (cache: %zu entries%s%s)\n",
                static_cast<unsigned long long>(c.requested),
                static_cast<unsigned long long>(c.hits),
                static_cast<unsigned long long>(c.misses),
                static_cast<unsigned long long>(c.coalesced),
                static_cast<unsigned long long>(c.simulations), service.cache().size(),
                cache_dir.empty() ? ", memory-only" : ", journal in ", cache_dir.c_str());
  }
  if (jsonl != nullptr) std::printf("event stream: %s\n", jsonl->path().c_str());
  std::printf("Expected ordering (paper): MA-Opt <= MA-Opt2 < DNN-Opt < BO ~ Random.\n");
  return 0;
}
