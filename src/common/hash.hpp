// Stable content hashing for design vectors — the addressing scheme of the
// evaluation-result cache (src/eval) and the duplicate-design screen of the
// elite set.
//
// Guarantees:
//   * Platform-stable: the hash is defined purely in terms of IEEE-754 bit
//     patterns and 64-bit integer arithmetic (FNV-1a), so the same design
//     hashes identically across compilers, architectures and runs — the
//     property that lets an on-disk result journal be reused cross-run.
//   * Bit-exact: each coordinate is hashed by its exact bit pattern, after
//     canonicalizing -0.0 to +0.0 so the two zeros (which compare equal)
//     coincide. Adjacent representable doubles hash apart.
//   * NaN-hostile: NaN coordinates are a contract violation — a NaN design
//     cannot be content-addressed (NaN != NaN) and never reaches a cache key
//     in a correct run.
#pragma once

#include <cstdint>
#include <span>

namespace maopt {

/// FNV-1a offset basis — the default seed of the hashes below.
inline constexpr std::uint64_t kHashSeed = 0xCBF29CE484222325ULL;

/// Folds `len` raw bytes into `seed` (FNV-1a).
std::uint64_t hash_bytes(const void* data, std::size_t len, std::uint64_t seed = kHashSeed);

/// Folds one 64-bit word into `seed` (FNV-1a over its 8 bytes, little-endian
/// byte order regardless of host endianness).
std::uint64_t hash_u64(std::uint64_t value, std::uint64_t seed);

/// Hash of a whole design vector. The length is folded in first, so a prefix
/// never collides with its extension. A NaN coordinate is a contract
/// violation.
std::uint64_t hash_design(std::span<const double> x, std::uint64_t seed = kHashSeed);

}  // namespace maopt
