// maopt_run_deck — compile SPICE decks into optimization problems and run
// them, entirely from the command line.
//
// Check mode (CI's deck gate — compiles everything, runs nothing):
//
//   ./examples/maopt_run_deck --check decks/*.cir
//
// Each deck is elaborated and compiled against its spec file (the deck path
// with a .spec extension, or --spec for a single deck) and a one-paragraph
// summary is printed: parameter space, objective, constraints, warnings.
// Exit 1 if any deck fails to compile.
//
// Run mode (one deck, optimized through the daemon):
//
//   ./examples/maopt_run_deck decks/five_transistor_ota.cir
//       [--spec PATH] [--algo MA-Opt] [--sims N] [--init N] [--seed N]
//       [--threads N] [--work-dir DIR] [--jsonl PATH] [--run-jsonl PATH]
//
// The deck goes through serve::OptDaemon's deck submission path (the same
// one `maopt_shell` exposes as `submit ... deck=`), so the run exercises the
// full service stack: result cache keyed by the deck's content fingerprint,
// fair-share scheduler, checkpointable MA-family optimizers. --jsonl is the
// daemon-level job-event stream, --run-jsonl the per-run event stream; both
// validate with tools/check_telemetry.py.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "maopt.hpp"

namespace {

using namespace maopt;

int check_decks(const CliArgs& args, const std::vector<std::string>& decks) {
  int failures = 0;
  for (const std::string& path : decks) {
    try {
      const deck::DeckProblem problem =
          deck::DeckProblem::from_files(path, args.get("spec", ""));
      const ckt::ProblemSpec& spec = problem.spec();
      std::printf("%s: ok (problem '%s')\n", path.c_str(), spec.name.c_str());
      const auto names = problem.parameter_names();
      for (std::size_t i = 0; i < problem.dim(); ++i)
        std::printf("  param %-10s in [%g, %g]%s\n", names[i].c_str(),
                    problem.lower_bounds()[i], problem.upper_bounds()[i],
                    problem.integer_mask()[i] ? " (integer)" : "");
      std::printf("  minimize %s [%s]\n", spec.target_name.c_str(), spec.target_unit.c_str());
      for (const auto& c : spec.constraints)
        std::printf("  s.t. %s %s %g %s\n", c.name.c_str(),
                    c.kind == ckt::ConstraintKind::GreaterEqual ? ">=" : "<=", c.bound,
                    c.unit.c_str());
      std::printf("  %zu measures, %zu analyses, fingerprint %016llx\n",
                  problem.deck().measures.size(), problem.deck().analyses.size(),
                  static_cast<unsigned long long>(problem.content_fingerprint()));
      for (const auto& warning : problem.deck().warnings)
        std::printf("  warning: %s\n", warning.c_str());
    } catch (const std::exception& e) {
      std::printf("%s: FAILED\n  %s\n", path.c_str(), e.what());
      ++failures;
    }
  }
  std::printf("%zu deck(s), %d failure(s)\n", decks.size(), failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace maopt;
  const CliArgs args(argc, argv);
  // CliArgs consumes the token after a flag as its value, so the first deck
  // after `--check` lands in the flag map; pull it back into the deck list.
  std::vector<std::string> decks = args.positional();
  const std::string check_value = args.get("check", "");
  if (!check_value.empty() && check_value != "true") decks.insert(decks.begin(), check_value);
  if (args.has("help") || decks.empty()) {
    std::printf(
        "usage: maopt_run_deck --check <deck.cir> [more.cir ...] [--spec PATH]\n"
        "       maopt_run_deck <deck.cir> [--spec PATH] [--algo MA-Opt] [--sims N]\n"
        "                      [--init N] [--seed N] [--threads N] [--work-dir DIR]\n"
        "                      [--jsonl PATH] [--run-jsonl PATH]\n"
        "Compile SPICE decks (+ sibling .spec files) into sizing problems; with\n"
        "--check just validate them, otherwise optimize the deck via the daemon.\n");
    return args.has("help") ? 0 : 2;
  }

  if (args.has("check")) return check_decks(args, decks);

  const std::string deck_path = decks[0];

  std::unique_ptr<obs::JsonlObserver> job_events;
  const std::string jsonl_path = args.get("jsonl", "");
  if (!jsonl_path.empty()) job_events = std::make_unique<obs::JsonlObserver>(jsonl_path);

  serve::DaemonConfig config;
  config.work_dir = args.get("work-dir", "maopt_deck_run");
  config.num_threads = static_cast<std::size_t>(args.get_int("threads", 0));
  config.observer = job_events.get();
  serve::OptDaemon daemon(config);

  serve::JobSpec spec;
  spec.deck_path = deck_path;
  spec.spec_path = args.get("spec", "");
  spec.name = std::filesystem::path(deck_path).stem().string() + "-run";
  spec.algorithm = args.get("algo", "MA-Opt");
  spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  spec.simulation_budget = static_cast<std::size_t>(args.get_int("sims", 60));
  spec.initial_samples = static_cast<std::size_t>(args.get_int("init", 20));
  spec.jsonl_path = args.get("run-jsonl", "");

  try {
    daemon.submit(spec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "submit failed: %s\n", e.what());
    return 1;
  }
  const serve::JobStatus status = daemon.wait(spec.name);

  std::printf("%s: %s after %llu sims — best %s %.6g%s\n", deck_path.c_str(),
              serve::to_string(status.state),
              static_cast<unsigned long long>(status.simulations),
              daemon.status(spec.name).spec.problem.c_str(), status.best_fom,
              status.feasible ? " (feasible)" : " (infeasible)");
  if (!status.error.empty()) std::printf("error: %s\n", status.error.c_str());
  return status.state == serve::JobState::Done ? 0 : 1;
}
