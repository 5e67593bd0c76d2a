// Deterministic random number generation for reproducible experiments.
//
// All stochastic components of the library (initial sampling, minibatch
// selection, actor initialization, near-sampling) draw from an explicitly
// seeded Rng so that a (seed, algorithm, problem) triple fully determines a
// run. The engine is xoshiro256**, which is fast, has a 256-bit state and
// passes BigCrush; distributions are implemented on top of it directly so
// results are identical across standard-library implementations.
#pragma once

#include <cstdint>

namespace maopt {

/// Counter-based splittable seeding: derive independent stream seeds from a
/// master seed (used to give each optimizer run / actor its own stream).
std::uint64_t derive_seed(std::uint64_t master, std::uint64_t stream);

/// xoshiro256** engine with inline distribution helpers.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return next(); }

  std::uint64_t next();

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal via Box-Muller (cached spare).
  double normal();
  /// Normal with given mean / stddev.
  double normal(double mean, double stddev);

 private:
  std::uint64_t state_[4];
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace maopt
