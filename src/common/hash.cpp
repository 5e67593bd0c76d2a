#include "common/hash.hpp"

#include <bit>
#include <cmath>

#include "common/check.hpp"

namespace maopt {

namespace {
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;
}  // namespace

std::uint64_t hash_bytes(const void* data, std::size_t len, std::uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t hash_u64(std::uint64_t value, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xFFU;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t hash_design(std::span<const double> x, std::uint64_t seed) {
  std::uint64_t h = hash_u64(static_cast<std::uint64_t>(x.size()), seed);
  for (double v : x) {
    MAOPT_CHECK(!std::isnan(v), "hash_design: NaN coordinate cannot be content-addressed");
    if (v == 0.0) v = 0.0;  // -0.0 and +0.0 compare equal, so they share an address
    h = hash_u64(std::bit_cast<std::uint64_t>(v), h);
  }
  return h;
}

}  // namespace maopt
