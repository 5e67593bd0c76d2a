// Seeded corruption replay for the two binary readers, the MAOPTCKP
// checkpoint (core::load_checkpoint) and the MAOPTEVC result journal
// (eval::ResultCache). A small reference file of each kind is written by the
// real writer; every mutant of it (each truncation length, each single-bit
// flip, and seeded overwrites of one 8-byte word with random bits, which is
// how a length field turns huge) is written to disk and handed to a loader.
//
// Allowed outcomes: the checkpoint loads or throws std::runtime_error; the
// journal opens, recovering what it can. Anything else (std::bad_alloc, a
// crash, another exception type) escapes the replay and fails the test.
// tests_core replays for the outcomes; tests_alloc replays under a counting
// allocator to bound the largest single allocation a load makes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuits/analytic_problems.hpp"
#include "common/rng.hpp"
#include "core/history_io.hpp"
#include "eval/result_cache.hpp"

namespace maopt::testing {

inline std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

inline void write_file_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Every proper prefix, every single-bit flip, then `overwrites` seeded
/// random 8-byte words at random offsets.
inline std::vector<std::string> corrupt_variants(const std::string& bytes, std::uint64_t seed,
                                                 int overwrites) {
  std::vector<std::string> out;
  for (std::size_t n = 0; n < bytes.size(); ++n) out.push_back(bytes.substr(0, n));
  for (std::size_t bit = 0; bit < 8 * bytes.size(); ++bit) {
    std::string m = bytes;
    m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1 << (bit % 8)));
    out.push_back(std::move(m));
  }
  Rng rng(seed);
  for (int k = 0; k < overwrites && bytes.size() >= 8; ++k) {
    std::string m = bytes;
    const auto at = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bytes.size()) - 8));
    std::uint64_t word = rng.next();
    for (std::size_t i = 0; i < 8; ++i, word >>= 8U) m[at + i] = static_cast<char>(word & 0xFFU);
    out.push_back(std::move(m));
  }
  return out;
}

/// A checkpoint of a short run on a real problem: initial samples, then
/// sweep-tagged records, as save_checkpoint writes it.
inline void write_reference_checkpoint(const std::string& path) {
  const ckt::ConstrainedQuadratic problem(2);
  core::RunHistory history;
  history.algorithm = "MA-Opt";
  history.num_initial = 2;
  Rng rng(11);
  double best = 1e30;
  for (std::size_t i = 0; i < 4; ++i) {
    core::SimRecord r;
    r.x = problem.random_design(rng);
    const ckt::EvalResult result = problem.evaluate(r.x);
    r.metrics = result.metrics;
    r.simulation_ok = result.simulation_ok;
    r.fom = result.metrics[0];
    r.feasible = i % 2 == 0;
    r.degraded = i == 3;
    r.variants_failed = i == 3 ? 1 : 0;
    r.variants_total = i >= 2 ? 5 : 0;
    if (i >= history.num_initial) {
      best = std::min(best, r.fom);
      history.best_fom_after.push_back(best);
    }
    history.records.push_back(std::move(r));
  }
  core::save_checkpoint(path, history, 0xC0FFEE);
}

/// A result journal holding three records under three problem fingerprints.
inline void write_reference_journal(const std::string& path) {
  const ckt::ConstrainedQuadratic problem(2);
  eval::ResultCache::Config config;
  config.journal_path = path;
  eval::ResultCache cache(config);
  Rng rng(12);
  for (std::uint64_t fp = 1; fp <= 3; ++fp) {
    const linalg::Vec x = problem.random_design(rng);
    cache.insert(eval::make_cache_key(fp, x), fp, x, problem.evaluate(x).metrics);
  }
}

/// Outcome tallies of one replay.
struct ReplayTally {
  int loaded = 0;
  int rejected = 0;
};

/// Writes each mutant of `reference` to `path` and runs `load` on it, which
/// returns normally on a load and throws std::runtime_error on a clean
/// rejection. `observe(mutant_size, load)` wraps each call, so a caller can
/// measure it; the default just calls it.
inline ReplayTally replay_corruptions(
    const std::string& reference, const std::string& path, std::uint64_t seed,
    const std::function<void(const std::string&)>& load,
    const std::function<void(std::size_t, const std::function<void()>&)>& observe =
        [](std::size_t, const std::function<void()>& run) { run(); }) {
  ReplayTally tally;
  for (const std::string& mutant : corrupt_variants(reference, seed, 256)) {
    write_file_bytes(path, mutant);
    observe(mutant.size(), [&] {
      try {
        load(path);
        ++tally.loaded;
      } catch (const std::runtime_error&) {
        ++tally.rejected;
      }
    });
  }
  return tally;
}

/// The checkpoint loader under replay: load or std::runtime_error.
inline void load_checkpoint_file(const std::string& path) { (void)core::load_checkpoint(path); }

/// The journal loader under replay: opening recovers instead of throwing,
/// then entries_for reads every kept record of the reference fingerprints
/// back from disk.
inline void load_journal_file(const std::string& path) {
  eval::ResultCache::Config config;
  config.journal_path = path;
  const eval::ResultCache cache(config);
  for (std::uint64_t fp = 1; fp <= 3; ++fp) (void)cache.entries_for(fp);
}

/// Scratch directory named after the running test; removed by the caller.
inline std::filesystem::path replay_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / ("maopt_replay_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace maopt::testing
