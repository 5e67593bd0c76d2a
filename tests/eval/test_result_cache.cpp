#include "eval/result_cache.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "../support/corrupt_file_replay.hpp"
#include "circuits/analytic_problems.hpp"
#include "circuits/resilient_problem.hpp"
#include "common/log.hpp"

namespace maopt::eval {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test, removed on teardown.
struct CacheDir : ::testing::Test {
  void SetUp() override {
    dir = fs::temp_directory_path() /
          ("maopt_cache_" +
           std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    journal = (dir / "eval_cache.bin").string();
  }
  void TearDown() override { fs::remove_all(dir); }

  ResultCache::Config config() const {
    ResultCache::Config c;
    c.journal_path = journal;
    return c;
  }

  fs::path dir;
  std::string journal;
};

CacheKey key_of(std::uint64_t fp, const Vec& x) { return make_cache_key(fp, x); }

TEST(ResultCacheMemory, InsertLookupAndMiss) {
  ResultCache cache({.memory_capacity = 8, .journal_path = {}});
  const Vec x = {1.0, 2.0};
  const Vec metrics = {3.0, 4.0, 5.0};
  EXPECT_FALSE(cache.lookup(key_of(7, x)).has_value());
  cache.insert(key_of(7, x), 7, x, metrics);
  const auto hit = cache.lookup(key_of(7, x));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, metrics);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCacheMemory, FirstWriterWins) {
  ResultCache cache({.memory_capacity = 8, .journal_path = {}});
  const Vec x = {1.0};
  cache.insert(key_of(1, x), 1, x, {10.0});
  cache.insert(key_of(1, x), 1, x, {99.0});
  EXPECT_EQ(cache.lookup(key_of(1, x)).value(), Vec{10.0});
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCacheMemory, LruEvictsLeastRecentlyUsed) {
  ResultCache cache({.memory_capacity = 2, .journal_path = {}});
  cache.insert(key_of(1, {1.0}), 1, {1.0}, {1.0});
  cache.insert(key_of(1, {2.0}), 1, {2.0}, {2.0});
  ASSERT_TRUE(cache.lookup(key_of(1, {1.0})).has_value());  // refresh {1}
  cache.insert(key_of(1, {3.0}), 1, {3.0}, {3.0});          // evicts {2}
  EXPECT_FALSE(cache.lookup(key_of(1, {2.0})).has_value());
  EXPECT_TRUE(cache.lookup(key_of(1, {1.0})).has_value());
  EXPECT_TRUE(cache.lookup(key_of(1, {3.0})).has_value());
}

TEST(ResultCacheMemory, EntriesForFiltersByFingerprint) {
  ResultCache cache({.memory_capacity = 8, .journal_path = {}});
  cache.insert(key_of(1, {1.0}), 1, {1.0}, {10.0});
  cache.insert(key_of(2, {2.0}), 2, {2.0}, {20.0});
  cache.insert(key_of(1, {3.0}), 1, {3.0}, {30.0});
  const auto mine = cache.entries_for(1);
  ASSERT_EQ(mine.size(), 2u);
  EXPECT_EQ(mine[0].metrics, Vec{10.0});  // insertion order preserved
  EXPECT_EQ(mine[1].metrics, Vec{30.0});
  EXPECT_EQ(cache.entries_for(3).size(), 0u);
}

TEST_F(CacheDir, JournalSurvivesReopen) {
  {
    ResultCache cache(config());
    cache.insert(key_of(5, {1.0, 2.0}), 5, {1.0, 2.0}, {42.0});
    cache.insert(key_of(5, {3.0, 4.0}), 5, {3.0, 4.0}, {43.0});
  }
  ResultCache reopened(config());
  EXPECT_EQ(reopened.size(), 2u);
  const auto hit = reopened.lookup(key_of(5, {1.0, 2.0}));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, Vec{42.0});
  const auto entries = reopened.entries_for(5);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].x, (Vec{1.0, 2.0}));
}

TEST_F(CacheDir, L2HitPromotesAfterEviction) {
  // Capacity 1: inserting 3 entries leaves 2 on disk only; both must still
  // be retrievable (read + promote), evicting each other in turn.
  auto c = config();
  c.memory_capacity = 1;
  ResultCache cache(c);
  cache.insert(key_of(1, {1.0}), 1, {1.0}, {10.0});
  cache.insert(key_of(1, {2.0}), 1, {2.0}, {20.0});
  cache.insert(key_of(1, {3.0}), 1, {3.0}, {30.0});
  EXPECT_EQ(cache.lookup(key_of(1, {1.0})).value(), Vec{10.0});
  EXPECT_EQ(cache.lookup(key_of(1, {2.0})).value(), Vec{20.0});
  EXPECT_EQ(cache.lookup(key_of(1, {3.0})).value(), Vec{30.0});
  EXPECT_EQ(cache.size(), 3u);
}

TEST_F(CacheDir, EpsilonMismatchStartsEmpty) {
  {
    ResultCache cache(config());
    cache.insert(key_of(1, {1.0}), 1, {1.0}, {10.0});
  }
  // A non-zero epsilon in the header (magic, u32 version, f64 epsilon) marks
  // keys an older writer quantized: none of them addresses a bit-exact key.
  {
    std::fstream io(journal, std::ios::binary | std::ios::in | std::ios::out);
    io.seekp(8 + 4);
    const double epsilon = 1e-6;
    io.write(reinterpret_cast<const char*>(&epsilon), sizeof(epsilon));
  }
  ResultCache mismatched(config());
  EXPECT_EQ(mismatched.size(), 0u);
  // The stale journal was replaced: a reopen now sees a zero-epsilon header.
  mismatched.insert(key_of(1, {2.0}), 1, {2.0}, {20.0});
  ResultCache reopened(config());
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_EQ(reopened.lookup(key_of(1, {2.0})).value(), Vec{20.0});
}

TEST_F(CacheDir, CorruptHeaderStartsEmpty) {
  {
    std::ofstream out(journal, std::ios::binary);
    out << "this is not a journal";
  }
  ResultCache cache(config());
  EXPECT_EQ(cache.size(), 0u);
  cache.insert(key_of(1, {1.0}), 1, {1.0}, {10.0});
  ResultCache reopened(config());
  EXPECT_EQ(reopened.size(), 1u);
}

TEST_F(CacheDir, TruncatedTailKeepsCompleteRecords) {
  {
    ResultCache cache(config());
    cache.insert(key_of(1, {1.0}), 1, {1.0}, {10.0});
    cache.insert(key_of(1, {2.0}), 1, {2.0}, {20.0});
  }
  // Chop a few bytes off the second record (a torn append).
  const auto size = fs::file_size(journal);
  fs::resize_file(journal, size - 5);

  ResultCache cache(config());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.lookup(key_of(1, {1.0})).value(), Vec{10.0});
  EXPECT_FALSE(cache.lookup(key_of(1, {2.0})).has_value());

  // Loading compacted the file: a further reopen parses cleanly end-to-end.
  ResultCache again(config());
  EXPECT_EQ(again.size(), 1u);
}

TEST_F(CacheDir, CompactRewritesExactlyCurrentEntries) {
  ResultCache cache(config());
  cache.insert(key_of(1, {1.0}), 1, {1.0}, {10.0});
  cache.insert(key_of(1, {2.0}), 1, {2.0}, {20.0});
  const auto before = fs::file_size(journal);
  cache.compact();
  EXPECT_EQ(fs::file_size(journal), before);  // nothing to drop: same bytes
  EXPECT_EQ(cache.lookup(key_of(1, {1.0})).value(), Vec{10.0});
  cache.insert(key_of(1, {3.0}), 1, {3.0}, {30.0});  // appends still work
  ResultCache reopened(config());
  EXPECT_EQ(reopened.size(), 3u);
}

TEST(ProblemFingerprint, StableAndDiscriminating) {
  ckt::ConstrainedQuadratic a(4);
  ckt::ConstrainedQuadratic b(4);
  ckt::ConstrainedQuadratic other(5);
  EXPECT_EQ(problem_fingerprint(a), problem_fingerprint(b));
  EXPECT_NE(problem_fingerprint(a), problem_fingerprint(other));
}

TEST(ProblemFingerprint, DecoratorsShareTheInnerFingerprint) {
  ckt::ConstrainedQuadratic inner(4);
  ckt::ResilientEvaluator resilient(inner);
  EXPECT_EQ(problem_fingerprint(inner), problem_fingerprint(resilient));
}

TEST(CacheKeyTest, DistinctProblemsNeverShareKeys) {
  const Vec x = {1.0, 2.0};
  const CacheKey a = make_cache_key(1, x);
  const CacheKey b = make_cache_key(2, x);
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(a == make_cache_key(1, x));
}

TEST(CorruptionReplay, JournalRecoversFromEveryMutant) {
  const auto dir = maopt::testing::replay_dir("journal");
  const std::string reference_path = (dir / "reference.bin").string();
  maopt::testing::write_reference_journal(reference_path);
  const std::string reference = maopt::testing::read_file_bytes(reference_path);

  const LogLevel level = log_level();
  set_log_level(LogLevel::Off);  // every mutant logs its recovery
  const auto tally = maopt::testing::replay_corruptions(
      reference, (dir / "mutant.bin").string(), 8, maopt::testing::load_journal_file);
  set_log_level(level);
  EXPECT_EQ(tally.rejected, 0) << "a corrupt journal is recovered, never rejected";
  EXPECT_GT(tally.loaded, 0);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace maopt::eval
