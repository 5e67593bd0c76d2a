// maopt_shell — CLI client/REPL for the in-process optimization daemon
// (serve::OptDaemon) with shell-style job control.
//
//   ./examples/maopt_shell [--threads N] [--capacity N] [--quantum N]
//                          [--work-dir DIR] [--jsonl PATH] [--seed N]
//                          [--fault-rate F]
//
// --fault-rate F > 0 registers a fourth problem "quad-faulty" (the quadratic
// behind seeded fault injection at total rate F) and turns on the resilient
// retry layer for every problem stack — the CI daemon-smoke job uses it to
// prove a faulty tenant cannot take the daemon down.
//
// Commands (one per line; reads stdin, so it works interactively and piped —
// the CI daemon-smoke job drives it with a heredoc):
//
//   help                          this text
//   problems                      registered problems
//   load NAME DECK [SPEC]         compile a SPICE deck (+ spec file, default
//                                 DECK with .spec) and register it as NAME
//   tenant NAME [WEIGHT]          register NAME and make it the current tenant
//   submit NAME [k=v ...] [&]     run a job; trailing & backgrounds it
//                                 keys: problem= algo= seed= sims= init=
//                                       ckpt-every= jsonl= deck= spec= resume
//                                 deck= compiles and registers the deck on
//                                 the fly (problem= names it; default stem)
//   jobs                          job table (%n is the job id)
//   status %N|NAME                one job's detail
//   pause %N|NAME                 checkpoint + vacate (MA-family only)
//   resume %N|NAME                foreground-resume a paused job
//   bg %N|NAME                    background-resume a paused job
//   fg %N|NAME                    wait for a job (returns on pause, like a
//                                 shell fg returning on Ctrl-Z)
//   kill %N|NAME                  terminate a job
//   sched                         fair-share scheduler stats
//   quit | exit                   kill remaining jobs and leave
//
// The daemon-level --jsonl stream carries only job-scoped events
// (job_submitted / job_state_changed / job_finished) and validates with
// tools/check_telemetry.py --min-jobs N; per-run event streams go to each
// job's own jsonl= sink.
#include <unistd.h>

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "maopt.hpp"

namespace {

using namespace maopt;

void print_jobs(const std::vector<serve::JobStatus>& jobs) {
  std::printf("%-4s %-12s %-10s %-8s %-8s %-9s %12s\n", "id", "name", "tenant", "algo", "state",
              "sims", "best_fom");
  for (const auto& job : jobs) {
    std::printf("%%%-3llu %-12s %-10s %-8s %-8s %4llu/%-4llu %12.4g\n",
                static_cast<unsigned long long>(job.id), job.spec.name.c_str(),
                job.spec.tenant.empty() ? "-" : job.spec.tenant.c_str(),
                job.spec.algorithm.c_str(), serve::to_string(job.state),
                static_cast<unsigned long long>(job.simulations),
                static_cast<unsigned long long>(job.spec.simulation_budget), job.best_fom);
  }
}

/// Resolves "%N" (job id) or a plain job name to the job's name; empty when
/// the reference matches nothing.
std::string resolve_job(serve::OptDaemon& daemon, const std::string& ref) {
  if (ref.empty()) return {};
  if (ref[0] == '%') {
    const auto id = static_cast<std::uint64_t>(std::strtoull(ref.c_str() + 1, nullptr, 10));
    for (const auto& job : daemon.jobs())
      if (job.id == id) return job.spec.name;
    return {};
  }
  return ref;
}

void report(const serve::JobStatus& status) {
  std::printf("[%s] %s: %llu sims, best fom %.6g%s%s\n", serve::to_string(status.state),
              status.spec.name.c_str(), static_cast<unsigned long long>(status.simulations),
              status.best_fom, status.feasible ? ", feasible" : "",
              status.error.empty() ? "" : (", error: " + status.error).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  if (args.has("help")) {
    std::printf("usage: maopt_shell [--threads N] [--capacity N] [--quantum N]\n"
                "                   [--work-dir DIR] [--jsonl PATH] [--seed N]\n"
                "                   [--fault-rate F]\n"
                "Interactive job-control shell over the optimization daemon; type "
                "'help' at the prompt.\n");
    return 0;
  }
  const double fault_rate = args.get_double("fault-rate", 0.0);

  std::unique_ptr<obs::JsonlObserver> job_events;
  const std::string jsonl_path = args.get("jsonl", "");
  if (!jsonl_path.empty()) job_events = std::make_unique<obs::JsonlObserver>(jsonl_path);

  // Built-in problem roster: the two SPICE testbenches plus a fast analytic
  // problem that keeps piped smoke runs cheap. Declared before the daemon —
  // its destructor joins worker threads that may still be evaluating them.
  ckt::TwoStageOta ota;
  ckt::ThreeStageTia tia;
  ckt::ConstrainedQuadratic quad(6);
  std::unique_ptr<ckt::FaultInjectingProblem> faulty;
  if (fault_rate > 0.0) {
    ckt::FaultInjectionConfig faults;
    faults.throw_rate = fault_rate / 2.0;  // no hangs: smoke runs stay fast
    faults.nan_rate = fault_rate / 4.0;
    faults.garbage_rate = fault_rate / 4.0;
    faulty = std::make_unique<ckt::FaultInjectingProblem>(quad, faults);
  }

  serve::DaemonConfig config;
  config.work_dir = args.get("work-dir", "maopt_daemon");
  config.num_threads = static_cast<std::size_t>(args.get_int("threads", 0));
  config.scheduler.capacity = static_cast<std::size_t>(args.get_int("capacity", 0));
  config.scheduler.quantum = static_cast<std::size_t>(args.get_int("quantum", 8));
  config.observer = job_events.get();
  if (fault_rate > 0.0) {
    // Retries absorb injected faults. The injector's garbage metrics reach
    // 1e12 in magnitude; real ota, tia and quad metrics stay below 1e5
    // (about 1e4 at most over random designs and box corners), and the
    // shipped decks' frequency measures end with their AC sweeps, at 10 GHz
    // at most.
    config.resilient.emplace();
    config.resilient->max_metric_magnitude = 1e10;
  }
  serve::OptDaemon daemon(config);

  daemon.add_problem("ota", ota);
  daemon.add_problem("tia", tia);
  daemon.add_problem("quad", quad);
  if (faulty) daemon.add_problem("quad-faulty", *faulty);

  const auto default_seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const bool interactive = isatty(fileno(stdin)) != 0;
  std::string tenant;
  std::string line;
  std::vector<std::pair<std::string, std::string>> loaded_decks;  // name -> deck path

  while (true) {
    if (interactive) {
      std::printf("maopt> ");
      std::fflush(stdout);
    }
    if (!std::getline(std::cin, line)) break;
    std::istringstream in(line);
    std::vector<std::string> words;
    for (std::string word; in >> word;) words.push_back(word);
    if (words.empty() || words[0][0] == '#') continue;
    const std::string& cmd = words[0];

    try {
      if (cmd == "quit" || cmd == "exit") break;
      if (cmd == "help") {
        std::printf("commands: help problems load tenant submit jobs status pause resume bg fg "
                    "kill sched quit\n");
      } else if (cmd == "problems") {
        std::printf("ota  — two-stage OTA (SPICE)\ntia  — three-stage TIA (SPICE)\n"
                    "quad — constrained quadratic (analytic, fast)\n");
        if (faulty)
          std::printf("quad-faulty — quad behind %.0f%% injected faults\n", fault_rate * 100.0);
        for (const auto& [name, path] : loaded_decks)
          std::printf("%s — deck-compiled (%s)\n", name.c_str(), path.c_str());
      } else if (cmd == "load") {
        if (words.size() < 3) {
          std::printf("usage: load NAME DECK [SPEC]\n");
          continue;
        }
        daemon.add_deck(words[1], words[2], words.size() > 3 ? words[3] : "");
        loaded_decks.emplace_back(words[1], words[2]);
        std::printf("%s loaded from %s\n", words[1].c_str(), words[2].c_str());
      } else if (cmd == "tenant") {
        if (words.size() < 2) {
          std::printf("current tenant: %s\n", tenant.empty() ? "(default)" : tenant.c_str());
        } else {
          tenant = words[1];
          const double weight = words.size() > 2 ? spice::parse_spice_value(words[2]) : 1.0;
          daemon.register_tenant(tenant, weight);
          std::printf("tenant %s (weight %g)\n", tenant.c_str(), weight);
        }
      } else if (cmd == "submit") {
        if (words.size() < 2) {
          std::printf("usage: submit NAME [problem=quad] [algo=MA-Opt] [seed=N] [sims=N] "
                      "[init=N] [ckpt-every=N] [jsonl=PATH] [deck=PATH] [spec=PATH] "
                      "[resume] [&]\n");
          continue;
        }
        serve::JobSpec spec;
        spec.name = words[1];
        spec.tenant = tenant;
        spec.problem = "quad";
        spec.seed = default_seed;
        bool background = false;
        for (std::size_t i = 2; i < words.size(); ++i) {
          const std::string& word = words[i];
          const auto eq = word.find('=');
          const std::string key = word.substr(0, eq);
          const std::string value = eq == std::string::npos ? "" : word.substr(eq + 1);
          if (word == "&") background = true;
          else if (word == "resume") spec.resume_from_checkpoint = true;
          else if (key == "deck") { spec.deck_path = value; spec.problem.clear(); }
          else if (key == "spec") spec.spec_path = value;
          else if (key == "problem") spec.problem = value;
          else if (key == "algo") spec.algorithm = value;
          else if (key == "seed") spec.seed = std::strtoull(value.c_str(), nullptr, 10);
          else if (key == "sims") spec.simulation_budget = std::strtoull(value.c_str(), nullptr, 10);
          else if (key == "init") spec.initial_samples = std::strtoull(value.c_str(), nullptr, 10);
          else if (key == "ckpt-every") spec.checkpoint_every = std::atoi(value.c_str());
          else if (key == "jsonl") spec.jsonl_path = value;
          else std::printf("ignoring unknown key: %s\n", word.c_str());
        }
        const std::uint64_t id = daemon.submit(spec);
        std::printf("[%%%llu] %s submitted\n", static_cast<unsigned long long>(id),
                    spec.name.c_str());
        if (!background) report(daemon.wait(spec.name));
      } else if (cmd == "jobs") {
        print_jobs(daemon.jobs());
      } else if (cmd == "sched") {
        for (const auto& [name, s] : daemon.scheduler().stats())
          std::printf("%-10s weight %4.1f  granted %6llu sims  waiting %zu\n",
                      name.empty() ? "(default)" : name.c_str(), s.weight,
                      static_cast<unsigned long long>(s.granted_sims), s.waiting);
      } else if (cmd == "status" || cmd == "pause" || cmd == "resume" || cmd == "bg" ||
                 cmd == "fg" || cmd == "kill" || cmd == "wait") {
        if (words.size() < 2) {
          std::printf("usage: %s %%N|NAME\n", cmd.c_str());
          continue;
        }
        const std::string name = resolve_job(daemon, words[1]);
        if (name.empty()) {
          std::printf("no such job: %s\n", words[1].c_str());
          continue;
        }
        if (cmd == "status") {
          report(daemon.status(name));
        } else if (cmd == "pause") {
          std::printf(daemon.pause(name) ? "%s: pause requested\n"
                                         : "%s: not pausable (not running, or not MA-family)\n",
                      name.c_str());
        } else if (cmd == "bg") {
          std::printf(daemon.resume(name) ? "%s: resumed in background\n" : "%s: not paused\n",
                      name.c_str());
        } else if (cmd == "resume") {
          if (!daemon.resume(name)) {
            std::printf("%s: not paused\n", name.c_str());
          } else {
            report(daemon.wait(name));
          }
        } else if (cmd == "fg" || cmd == "wait") {
          report(daemon.wait(name));
        } else {  // kill
          std::printf(daemon.kill(name) ? "%s: kill requested\n" : "%s: already finished\n",
                      name.c_str());
          report(daemon.wait(name));
        }
      } else {
        std::printf("unknown command: %s (try 'help')\n", cmd.c_str());
      }
    } catch (const std::exception& e) {
      std::printf("error: %s\n", e.what());
    }
  }

  // Daemon destructor kills whatever is still running and joins the workers.
  return 0;
}
