#include "core/history_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "../support/corrupt_file_replay.hpp"
#include "circuits/analytic_problems.hpp"
#include "core/random_search.hpp"

namespace maopt::core {
namespace {

struct IoFixture : ::testing::Test {
  IoFixture() : problem(3) {
    Rng rng(1);
    auto init = sample_initial_set(problem, 5, rng);
    std::vector<linalg::Vec> rows;
    for (const auto& r : init) rows.push_back(r.metrics);
    const auto fom = ckt::FomEvaluator::fit_reference(problem, rows);
    RandomSearch rs;
    history = rs.run(problem, init, fom, {.seed = 2, .simulation_budget = 7});
  }
  ckt::ConstrainedQuadratic problem;
  RunHistory history;
};

TEST_F(IoFixture, CheckpointRoundTripPreservesEverything) {
  history.aborted = true;
  history.abort_reason = "circuit breaker";
  history.records[1].simulation_ok = false;
  history.records[1].feasible = false;
  const std::string path = "/tmp/maopt_checkpoint_roundtrip.ckpt";
  save_checkpoint(path, history, 0xDEADBEEFu);

  const RunCheckpoint loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.version, kCheckpointFormatVersion);
  EXPECT_EQ(loaded.seed, 0xDEADBEEFu);
  const RunHistory& h = loaded.history;
  EXPECT_EQ(h.algorithm, history.algorithm);
  EXPECT_EQ(h.num_initial, history.num_initial);
  EXPECT_TRUE(h.aborted);
  EXPECT_EQ(h.abort_reason, "circuit breaker");
  EXPECT_DOUBLE_EQ(h.wall_seconds, history.wall_seconds);
  EXPECT_DOUBLE_EQ(h.sim_seconds, history.sim_seconds);
  ASSERT_EQ(h.records.size(), history.records.size());
  for (std::size_t i = 0; i < h.records.size(); ++i) {
    EXPECT_EQ(h.records[i].x, history.records[i].x);
    EXPECT_EQ(h.records[i].metrics, history.records[i].metrics);
    EXPECT_DOUBLE_EQ(h.records[i].fom, history.records[i].fom);
    EXPECT_EQ(h.records[i].feasible, history.records[i].feasible);
    EXPECT_EQ(h.records[i].simulation_ok, history.records[i].simulation_ok);
  }
  EXPECT_EQ(h.best_fom_after, history.best_fom_after);
  std::remove(path.c_str());
}

TEST_F(IoFixture, CheckpointRoundTripPreservesSweepProvenance) {
  history.records[0].degraded = true;
  history.records[0].variants_failed = 2;
  history.records[0].variants_total = 5;
  history.records[2].variants_total = 64;
  const std::string path = "/tmp/maopt_checkpoint_provenance.ckpt";
  save_checkpoint(path, history, 7);

  const RunCheckpoint loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.version, 2u);
  ASSERT_EQ(loaded.history.records.size(), history.records.size());
  for (std::size_t i = 0; i < history.records.size(); ++i) {
    EXPECT_EQ(loaded.history.records[i].degraded, history.records[i].degraded) << i;
    EXPECT_EQ(loaded.history.records[i].variants_failed, history.records[i].variants_failed) << i;
    EXPECT_EQ(loaded.history.records[i].variants_total, history.records[i].variants_total) << i;
  }
  std::remove(path.c_str());
}

TEST_F(IoFixture, CheckpointLoadsVersionOneWithDefaultProvenance) {
  // A v1 snapshot (written before the provenance fields existed) must load
  // with every record defaulting to single-point provenance. Synthesized by
  // writing v2 and rewriting the payload in the v1 layout: version 1 in the
  // header and the 9 provenance bytes stripped from each record.
  const std::string v2_path = "/tmp/maopt_checkpoint_v2_src.ckpt";
  save_checkpoint(v2_path, history, 5);
  std::ifstream in(v2_path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();

  // Header: 8-byte magic, u32 version, u64 seed, then algorithm string...
  bytes[8] = 1;  // version 2 -> 1 (little-endian u32)
  std::string v1 = bytes.substr(0, 8 + 4);
  std::size_t i = 8 + 4;
  auto copy_n = [&](std::size_t n) { v1.append(bytes, i, n); i += n; };
  auto read_u64 = [&](std::size_t at) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + at, sizeof(v));
    return v;
  };
  copy_n(8);  // seed
  const std::uint64_t alg_len = read_u64(i);
  copy_n(8 + alg_len);  // algorithm
  copy_n(8 + 1);        // num_initial + aborted
  const std::uint64_t reason_len = read_u64(i);
  copy_n(8 + reason_len);  // abort_reason
  copy_n(4 * 8);           // the four seconds fields
  const std::uint64_t num_records = read_u64(i);
  copy_n(8);
  for (std::uint64_t r = 0; r < num_records; ++r) {
    const std::uint64_t x_len = read_u64(i);
    copy_n(8 + x_len * 8);
    const std::uint64_t m_len = read_u64(i);
    copy_n(8 + m_len * 8);
    copy_n(8 + 1 + 1);  // fom + feasible + simulation_ok
    i += 1 + 4 + 4;     // strip degraded + variants_failed + variants_total
  }
  v1.append(bytes, i, std::string::npos);  // best_fom_after tail

  const std::string v1_path = "/tmp/maopt_checkpoint_v1.ckpt";
  {
    std::ofstream out(v1_path, std::ios::binary);
    out.write(v1.data(), static_cast<std::streamsize>(v1.size()));
  }
  const RunCheckpoint loaded = load_checkpoint(v1_path);
  EXPECT_EQ(loaded.version, 1u);
  ASSERT_EQ(loaded.history.records.size(), history.records.size());
  for (const auto& r : loaded.history.records) {
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.variants_failed, 0u);
    EXPECT_EQ(r.variants_total, 0u);
  }
  EXPECT_EQ(loaded.history.records.back().x, history.records.back().x);
  EXPECT_EQ(loaded.history.best_fom_after, history.best_fom_after);
  std::remove(v2_path.c_str());
  std::remove(v1_path.c_str());
}

TEST_F(IoFixture, CheckpointRejectsUnknownFutureVersion) {
  const std::string path = "/tmp/maopt_checkpoint_future.ckpt";
  save_checkpoint(path, history, 3);
  std::fstream io(path, std::ios::in | std::ios::out | std::ios::binary);
  io.seekp(8);
  const std::uint32_t future = 99;
  io.write(reinterpret_cast<const char*>(&future), sizeof(future));
  io.close();
  EXPECT_THROW(load_checkpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST_F(IoFixture, CheckpointSaveIsAtomicNoTempFileLeftBehind) {
  const std::string path = "/tmp/maopt_checkpoint_atomic.ckpt";
  save_checkpoint(path, history, 1);
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());  // the temp file was renamed away
  std::ifstream real(path);
  EXPECT_TRUE(real.good());
  std::remove(path.c_str());
}

TEST_F(IoFixture, CheckpointLoadRejectsMissingAndCorruptFiles) {
  EXPECT_THROW(load_checkpoint("/tmp/maopt_no_such_file.ckpt"), std::runtime_error);

  const std::string bad_magic = "/tmp/maopt_checkpoint_badmagic.ckpt";
  {
    std::ofstream out(bad_magic, std::ios::binary);
    out << "NOTMAOPT-garbage-garbage-garbage";
  }
  EXPECT_THROW(load_checkpoint(bad_magic), std::runtime_error);
  std::remove(bad_magic.c_str());

  // Truncation anywhere in the payload must throw, never crash or return
  // a partially-filled history.
  const std::string full = "/tmp/maopt_checkpoint_full.ckpt";
  save_checkpoint(full, history, 9);
  std::ifstream in(full, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  const std::string cut = "/tmp/maopt_checkpoint_cut.ckpt";
  for (const double frac : {0.3, 0.6, 0.95}) {
    {
      std::ofstream out(cut, std::ios::binary);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() * frac));
    }
    EXPECT_THROW(load_checkpoint(cut), std::runtime_error) << "frac " << frac;
  }
  std::remove(full.c_str());
  std::remove(cut.c_str());
}

TEST(CorruptionReplay, CheckpointLoadsOrRejectsEveryMutant) {
  const auto dir = maopt::testing::replay_dir("checkpoint");
  const std::string reference_path = (dir / "reference.ckpt").string();
  maopt::testing::write_reference_checkpoint(reference_path);
  const std::string reference = maopt::testing::read_file_bytes(reference_path);
  ASSERT_NO_THROW(load_checkpoint(reference_path));

  const auto tally = maopt::testing::replay_corruptions(
      reference, (dir / "mutant.ckpt").string(), 7, maopt::testing::load_checkpoint_file);
  // Flips inside doubles and flags still load; truncations never do.
  EXPECT_GT(tally.loaded, 0);
  EXPECT_GE(tally.rejected, static_cast<int>(reference.size()));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace maopt::core
