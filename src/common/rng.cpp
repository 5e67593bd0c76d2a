#include "common/rng.hpp"

#include <cmath>

namespace maopt {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

std::uint64_t derive_seed(std::uint64_t master, std::uint64_t stream) {
  std::uint64_t x = master ^ (0xD1B54A32D192ED03ULL * (stream + 1));
  return splitmix64(x);
}

Rng::Rng(std::uint64_t seed) {
  // Expand the seed through splitmix64 per the xoshiro authors' guidance;
  // guards against the all-zero state.
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return lo + static_cast<std::int64_t>(next());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = (~std::uint64_t{0} / span) * span;
  std::uint64_t r = next();
  while (r >= limit) r = next();
  return lo + static_cast<std::int64_t>(r % span);
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  double u1 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  spare_normal_ = mag * std::sin(6.283185307179586 * u2);
  has_spare_ = true;
  return mag * std::cos(6.283185307179586 * u2);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

}  // namespace maopt
