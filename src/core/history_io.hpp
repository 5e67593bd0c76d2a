// Run persistence: versioned binary checkpoints that let a killed run resume
// mid-budget instead of losing hundreds of simulations (see
// MaOptimizer::resume).
#pragma once

#include <cstdint>
#include <string>

#include "core/history.hpp"

namespace maopt::core {

/// Current on-disk checkpoint format version. v2 appends the sweep
/// provenance fields (degraded / variants_failed / variants_total) to each
/// record. load_checkpoint still reads v1 snapshots (provenance defaults to
/// single-point) and rejects anything else.
inline constexpr std::uint32_t kCheckpointFormatVersion = 2;

/// A resumable snapshot of a run: the full history plus the master seed the
/// run's RNG streams derive from. Because every optimizer RNG stream is
/// re-derived from (seed, stream-id, iteration), history + seed is enough to
/// deterministically replay surrogate state without re-simulating — see
/// MaOptimizer::resume.
struct RunCheckpoint {
  std::uint32_t version = kCheckpointFormatVersion;
  std::uint64_t seed = 0;
  RunHistory history;
};

/// Writes the snapshot atomically: the payload goes to `path` + ".tmp" and
/// is renamed over `path`, so readers never observe a torn file and a crash
/// mid-write leaves any previous checkpoint intact. Returns the snapshot
/// size in bytes (reported in obs::CheckpointWritten). Throws
/// std::runtime_error on I/O failure.
std::uint64_t save_checkpoint(const std::string& path, const RunHistory& history,
                              std::uint64_t seed);

/// Loads a snapshot written by save_checkpoint. Throws std::runtime_error on
/// a missing file, bad magic, unsupported version, or truncation.
RunCheckpoint load_checkpoint(const std::string& path);

}  // namespace maopt::core
