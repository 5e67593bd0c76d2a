#include "common/hash.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace maopt {
namespace {

// Published FNV-1a 64-bit test vectors: the platform-stability anchor. If any
// of these fail on a new compiler/architecture, on-disk cache journals are no
// longer portable to it.
TEST(Hash, MatchesFnv1aReferenceVectors) {
  EXPECT_EQ(hash_bytes("", 0), 0xCBF29CE484222325ULL);
  EXPECT_EQ(hash_bytes("a", 1), 0xAF63DC4C8601EC8CULL);
  EXPECT_EQ(hash_bytes("foobar", 6), 0x85944171F73967E8ULL);
}

TEST(Hash, HashU64FoldsLittleEndianBytes) {
  // hash_u64 must equal hash_bytes over the value's little-endian bytes on
  // every platform (that is the definition that makes journals portable).
  const std::uint64_t v = 0x0123456789ABCDEFULL;
  const unsigned char le[8] = {0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01};
  EXPECT_EQ(hash_u64(v, kHashSeed), hash_bytes(le, 8));
}

TEST(Hash, DesignHashIsDeterministic) {
  const std::vector<double> x = {1.5, -2.25, 3.0e-6, 4.0e9};
  EXPECT_EQ(hash_design(x), hash_design(x));
  EXPECT_EQ(hash_design(x, kHashSeed ^ 7U), hash_design(x, kHashSeed ^ 7U));
}

TEST(Hash, LengthIsFolded) {
  // A prefix must never collide with its zero-extension.
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {1.0, 2.0, 0.0};
  EXPECT_NE(hash_design(a), hash_design(b));
  EXPECT_NE(hash_design({}), hash_design(b));
}

TEST(Hash, NegativeZeroCanonicalized) {
  const std::vector<double> pos = {0.0, 1.0};
  const std::vector<double> neg = {-0.0, 1.0};
  EXPECT_EQ(hash_design(pos), hash_design(neg));
}

TEST(Hash, ExactModeSeparatesNearbyValues) {
  // Bit-exact addressing: adjacent representable doubles differ.
  const double v = 1.0;
  const double next = std::nextafter(v, 2.0);
  EXPECT_NE(hash_design({&v, 1}), hash_design({&next, 1}));
}

TEST(Hash, NanCoordinateIsAContractViolation) {
  const std::vector<double> x = {1.0, std::nan("")};
  EXPECT_THROW(hash_design(x), ContractViolation);
}

TEST(Hash, NoCollisionsAcrossRandomDesigns) {
  // 64-bit FNV over 20k random 8-d designs: any collision here would signal
  // a broken fold, not bad luck (expected collisions ~ 1e-11).
  Rng rng(42);
  std::unordered_set<std::uint64_t> seen;
  std::vector<double> x(8);
  for (int i = 0; i < 20000; ++i) {
    for (auto& v : x) v = rng.uniform(-1e6, 1e6);
    EXPECT_TRUE(seen.insert(hash_design(x)).second) << "collision at design " << i;
  }
}

TEST(Hash, SeedChangesHash) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  EXPECT_NE(hash_design(x, kHashSeed), hash_design(x, kHashSeed ^ 1U));
}

}  // namespace
}  // namespace maopt
