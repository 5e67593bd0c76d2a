// Robust & yield workloads (extension beyond the paper): optimize the OTA
// across the five classic process corners with MA-Opt — every evaluation the
// optimizer sees is a fault-tolerant batched corner sweep — then Monte-Carlo
// the winning design under device mismatch and report the yield quantile.
//
// The whole stack is the production robustness pipeline:
//
//   TwoStageOta  <-  FaultInjectingProblem  <-  EvalService  <-  RobustProblem
//                    (optional, --fault-rate)   (batched fan-out)  / YieldProblem
//
// Partial simulation failures degrade per the chosen policy instead of
// poisoning the run, and --jsonl streams the corner-tagged sweep telemetry
// (validate with tools/check_telemetry.py <file> --min-sweeps N).
//
//   ./examples/yield_analysis [--sims 40] [--init 30] [--mc 64]
//                             [--sigma-vth 0.01] [--sigma-kp 0.03]
//                             [--yield-target 0.9] [--fault-rate 0]
//                             [--policy penalize-failed] [--threads 4]
//                             [--jsonl PATH] [--seed 0]
//
// (Flag spellings are canonicalized by CliArgs: --sigma_vth == --sigma-vth.)
//
// Budgets count sweep evaluations: one --sims unit is 5 corner simulations,
// and the Monte Carlo step adds --mc instance simulations.
#include <cstdio>
#include <memory>
#include <string>

#include "maopt.hpp"

namespace {

bool parse_policy(const std::string& name, maopt::ckt::SweepFailurePolicy* out) {
  using maopt::ckt::SweepFailurePolicy;
  if (name == "fail-fast") {
    *out = SweepFailurePolicy::FailFast;
  } else if (name == "penalize-failed") {
    *out = SweepFailurePolicy::PenalizeFailedVariant;
  } else if (name == "conservative-bound") {
    *out = SweepFailurePolicy::ConservativeBound;
  } else {
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace maopt;
  const CliArgs args(argc, argv);
  if (args.has("help")) {
    std::printf(
        "usage: yield_analysis [--sims N] [--init N] [--mc N] [--sigma-vth V]\n"
        "                      [--sigma-kp F] [--yield-target F] [--fault-rate F]\n"
        "                      [--policy fail-fast|penalize-failed|conservative-bound]\n"
        "                      [--threads N] [--jsonl PATH] [--seed N]\n"
        "Corner-robust MA-Opt run plus Monte-Carlo mismatch yield on the winner.\n");
    return 0;
  }
  const auto sims = static_cast<std::size_t>(args.get_int("sims", 40));
  const auto init = static_cast<std::size_t>(args.get_int("init", 30));
  const int mc = static_cast<int>(args.get_int("mc", 64));
  const double sigma_vth = args.get_double("sigma-vth", 0.01);
  const double sigma_kp = args.get_double("sigma-kp", 0.03);
  const double yield_target = args.get_double("yield-target", 0.9);
  const double fault_rate = args.get_double("fault-rate", 0.0);
  const auto threads = static_cast<std::size_t>(args.get_int("threads", 4));
  const std::string jsonl = args.get("jsonl", "");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 0));

  ckt::SweepFailurePolicy failure_policy = ckt::SweepFailurePolicy::PenalizeFailedVariant;
  if (!parse_policy(args.get("policy", "penalize-failed"), &failure_policy)) {
    std::fprintf(stderr, "unknown --policy (use fail-fast | penalize-failed | "
                         "conservative-bound)\n");
    return 2;
  }

  // The stack: real OTA, seeded fault injection, batched evaluation service.
  ckt::TwoStageOta ota;
  const ckt::FaultInjectingProblem faulty(
      ota, ckt::FaultInjectionConfig::mixed(fault_rate, seed + 0xFA));
  eval::EvalServiceConfig service_config;
  service_config.num_threads = threads;
  const serve::ServiceStack stack(faulty, service_config);
  const eval::EvalService& service = stack.service();

  // One sweep policy for both workloads; each sweep problem validates it.
  ckt::SweepPolicyConfig sweep_policy;
  sweep_policy.failure_policy = failure_policy;
  sweep_policy.yield_target = yield_target;

  ckt::RobustConfig robust_config;
  robust_config.policy = sweep_policy;
  ckt::RobustProblem robust(service, robust_config);

  std::unique_ptr<obs::JsonlObserver> sink;
  if (!jsonl.empty()) {
    sink = std::make_unique<obs::JsonlObserver>(jsonl);
    robust.set_observer(sink.get());
  }

  std::printf("Robust optimization: %zu sweep evaluations x %zu corners, "
              "policy %s, fault rate %.0f%%, %zu worker threads (batched)\n",
              sims, robust.num_corners(), ckt::to_string(failure_policy), fault_rate * 100.0,
              threads);

  Rng rng(seed);
  auto initial = core::sample_initial_set(robust, init, rng);
  std::vector<linalg::Vec> rows;
  for (const auto& r : initial) rows.push_back(r.metrics);
  const auto fom = ckt::FomEvaluator::fit_reference(robust, rows);

  core::MaOptimizer optimizer(core::MaOptConfig::ma_opt());
  const auto history = optimizer.run(robust, initial, fom, {.seed = seed, .simulation_budget = sims});
  const core::SimRecord* best = history.best_feasible();
  if (best == nullptr) best = history.best();
  std::printf("Best across corners: fom=%.4g, feasible=%s, worst-corner power=%.4g mW\n",
              best->fom, best->feasible ? "yes" : "no", best->metrics[0]);
  std::printf("  sweep engine: %s\n", robust.stats().report().c_str());
  if (fault_rate > 0.0)
    std::printf("  injected faults so far: %llu\n",
                static_cast<unsigned long long>(faulty.injected()));

  // Monte Carlo mismatch on the winner: one YieldProblem evaluation fans the
  // seeded instances through the same batched service and aggregates the
  // empirical yield quantile.
  ckt::YieldConfig yield_config;
  yield_config.mismatch.instances = mc;
  yield_config.mismatch.sigma_vth = sigma_vth;
  yield_config.mismatch.sigma_kp_rel = sigma_kp;
  yield_config.policy = sweep_policy;  // failure policy + yield target
  ckt::YieldProblem yield(service, yield_config);
  if (sink) yield.set_observer(sink.get());

  std::printf("\nMonte Carlo mismatch: %d instances, sigma_vth=%.0f mV, sigma_kp=%.0f%%, "
              "target fraction %.0f%%\n",
              mc, sigma_vth * 1e3, sigma_kp * 1e2, yield_target * 100.0);
  const ckt::EvalResult agg = yield.evaluate(best->x);
  if (!agg.simulation_ok) {
    std::printf("Yield sweep failed outright (%u/%u instances lost) — "
                "per the %s policy.\n",
                agg.variants_failed, agg.variants_total, ckt::to_string(failure_policy));
  } else {
    std::printf("Yield quantile%s: power=%.4g mW, feasible at target fraction: %s "
                "(%u/%u instances failed)\n",
                agg.degraded ? " (degraded)" : "", agg.metrics[0],
                yield.feasible(agg.metrics) ? "yes" : "no", agg.variants_failed,
                agg.variants_total);
    const auto& cs = ota.spec().constraints;
    std::printf("Per-constraint quantile values (met by >= %.0f%% of instances?):\n",
                yield_target * 100.0);
    for (std::size_t c = 0; c < cs.size(); ++c) {
      const double v = agg.metrics[c + 1];
      std::printf("  %-16s %10.4g  %s\n", cs[c].name.c_str(), v,
                  ckt::normalized_violation(cs[c], v) == 0.0 ? "yes" : "no");
    }
  }
  std::printf("  sweep engine: %s\n", yield.stats().report().c_str());

  const auto counters = service.counters();
  std::printf("\nEvaluation service: %llu requested, %llu cache hits, %llu simulated\n",
              static_cast<unsigned long long>(counters.requested),
              static_cast<unsigned long long>(counters.hits),
              static_cast<unsigned long long>(counters.misses));
  if (sink) std::printf("Sweep telemetry written to %s\n", sink->path().c_str());

  std::printf("\nOptimizing across corners buys robustness the nominal optimum lacks;\n"
              "the yield quantile then prices the residual mismatch risk — and both\n"
              "survive injected simulator faults by degrading per policy.\n");
  return 0;
}
