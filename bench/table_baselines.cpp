// Extended-baselines table (beyond the paper): adds the related-work
// population methods the paper cites but does not run — PSO [7] and DE [8]
// — plus a modernized BO (log-FoM + ARD) next to the vanilla BO baseline,
// against DNN-Opt and MA-Opt. Default workload: the two-stage OTA.
#include <cstdio>

#include "core/de.hpp"
#include "core/pso.hpp"
#include "core/random_search.hpp"
#include "exp_common.hpp"

int main(int argc, char** argv) {
  using namespace maopt;
  using namespace maopt::bench;
  const CliArgs args(argc, argv);
  ExperimentConfig config = ExperimentConfig::from_cli(args);

  std::unique_ptr<ckt::SizingProblem> problem;
  const std::string which = args.get("circuit", "ota");
  if (which == "ota") {
    problem = std::make_unique<ckt::TwoStageOta>();
  } else if (which == "tia") {
    problem = std::make_unique<ckt::ThreeStageTia>();
  } else if (which == "analytic") {
    problem = std::make_unique<ckt::ConstrainedQuadratic>(12);
  } else {
    std::fprintf(stderr,
                 "table_baselines: unknown --circuit '%s'\n"
                 "usage: table_baselines [--circuit ota|tia|analytic] [--runs N] [--sims N] "
                 "[--init N]\n",
                 which.c_str());
    return 2;
  }

  std::vector<std::unique_ptr<core::Optimizer>> roster;
  roster.push_back(std::make_unique<core::RandomSearch>());
  roster.push_back(std::make_unique<core::PsoOptimizer>());
  roster.push_back(std::make_unique<core::DeOptimizer>());
  roster.push_back(std::make_unique<gp::BoOptimizer>());
  roster.push_back(std::make_unique<gp::BoOptimizer>(gp::BoConfig::tuned()));
  roster.push_back(std::make_unique<core::MaOptimizer>(core::MaOptConfig::dnn_opt()));
  roster.push_back(std::make_unique<core::MaOptimizer>(core::MaOptConfig::ma_opt()));

  auto summaries = run_comparison(*problem, std::move(roster), config);
  print_table("Extended baselines (" + problem->spec().name + ")", "Min target", summaries);
  return 0;
}
