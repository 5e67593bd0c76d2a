// The three benchmark workloads. Each runs repetitions of one closed loop
// until its time is spent and returns one Sample per repetition; the
// benchmark program prints them as JSON and perfbench/run.py turns them
// into metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunSpec {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time per mode (untraced, then traced)
  bool trace = false;     ///< also run traced repetitions after the untraced ones
  std::string work_dir;   ///< scratch directory for daemon state
  std::string inputs_dir; ///< perfbench/inputs (deck + spec + model library)
};

/// One repetition of a workload. `values` hold scalars (seconds, counts),
/// `series` per-request samples and the trajectory the digest is taken of.
struct Sample {
  bool traced = false;
  std::map<std::string, double> values;
  std::map<std::string, std::vector<double>> series;
  std::map<std::string, std::string> notes;  ///< e.g. paths of per-run JSONL streams
};

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

std::vector<Sample> run_paper_ota(const RunSpec& spec);
std::vector<Sample> run_yield_mc(const RunSpec& spec);
std::vector<Sample> run_daemon_jobs(const RunSpec& spec);

}  // namespace perfbench
