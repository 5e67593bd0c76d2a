// Content-addressed evaluation-result cache — the storage half of the
// evaluation service (eval_service.hpp).
//
// Keys are 128-bit hashes of (problem fingerprint, design vector): the
// fingerprint covers everything that changes what a simulation means (spec,
// dimension, bounds, integer mask, constraint bounds/weights), and the design
// vector is hashed bit-exactly (common/hash.hpp), so a journal written by one
// run addresses the results of any later run of the same problem. Two
// levels:
//
//   L1  bounded in-memory LRU of full results (metrics + the exact design
//       that produced them).
//   L2  append-only on-disk journal (versioned MAOPTEVC header whose
//       quantization-epsilon field is always written as 0). Records are
//       appended + flushed one at a time, so a crash loses at most the
//       record being written; loading tolerates a truncated tail and
//       compacts the file via tmp + rename — the same atomic-replace
//       discipline as history_io checkpoints. An L2 hit reads the record
//       back from disk and promotes it into L1.
//
// Only successful simulations are stored: a failure (timeout, garbage, NaN)
// may be transient, and replaying it from a cache would turn a recoverable
// fault into a permanent one.
#pragma once

#include <cstdint>
#include <fstream>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.hpp"

#include "circuits/sizing_problem.hpp"
#include "linalg/matrix.hpp"

namespace maopt::eval {

using linalg::Vec;

/// 128-bit content address: two independently-seeded 64-bit design hashes,
/// making accidental collisions (which would silently alias two designs'
/// results) negligible at any realistic cache size.
struct CacheKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const {
    return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9E3779B97F4A7C15ULL));
  }
};

/// Stable identity hash of a sizing problem: spec name, target name/weight,
/// every constraint (name, kind, bound, weight), dimension, bounds and
/// integer mask. Decorators that forward spec()/bounds() unchanged
/// (ResilientEvaluator, EvalService itself) share the fingerprint of the
/// problem they wrap, which is what makes a cache survive re-wrapping.
std::uint64_t problem_fingerprint(const ckt::SizingProblem& problem);

/// Bit-exact content address of design `x` under problem fingerprint
/// `problem_fp` (two independently-seeded hash_design folds).
CacheKey make_cache_key(std::uint64_t problem_fp, std::span<const double> x);

/// One cached evaluation: the exact design simulated and its metric vector. `problem_fp` routes warm starts to the
/// right problem when one journal holds several.
struct CachedEval {
  std::uint64_t problem_fp = 0;
  Vec x;
  Vec metrics;
};

/// Current journal format version (load rejects other versions by starting
/// an empty cache; compaction rewrites the current version).
inline constexpr std::uint32_t kJournalFormatVersion = 1;

class ResultCache {
 public:
  struct Config {
    std::size_t memory_capacity = 4096;  ///< L1 entries (>= 1)
    std::string journal_path;            ///< empty: memory-only (no L2)
  };

  /// Loads the journal when one exists. A missing file starts empty; a
  /// corrupt header or a non-zero epsilon field (keys an older writer
  /// quantized) starts empty and logs a warning (the stale journal is
  /// replaced on the first insert-triggered compaction); a truncated tail
  /// keeps every complete record and compacts immediately.
  explicit ResultCache(Config config);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Metrics for `key`, or nullopt. An L2 hit is promoted into L1.
  std::optional<Vec> lookup(const CacheKey& key);

  /// Stores a successful evaluation under `key` (first writer wins; a key
  /// already present is left untouched). Appends to the journal when
  /// persistence is enabled.
  void insert(const CacheKey& key, std::uint64_t problem_fp, const Vec& x, const Vec& metrics);

  /// Every resident entry whose problem fingerprint matches, in insertion
  /// order (journal order first, then this process's inserts). Entries
  /// evicted from a memory-only cache are gone and skipped.
  std::vector<CachedEval> entries_for(std::uint64_t problem_fp) const;

  std::size_t size() const;
  const Config& config() const { return config_; }

 private:
  struct Entry {
    CachedEval eval;
    std::list<CacheKey>::iterator lru_pos;  ///< valid iff resident in L1
    bool in_l1 = false;
    std::uint64_t file_offset = 0;  ///< valid iff on disk
    bool on_disk = false;
  };

  void load_journal() MAOPT_REQUIRES(mutex_);
  void append_journal(const CacheKey& key, Entry& entry) MAOPT_REQUIRES(mutex_);
  std::optional<CachedEval> read_record_at(std::uint64_t offset) const MAOPT_REQUIRES(mutex_);
  void evict_overflow() MAOPT_REQUIRES(mutex_);
  void compact_locked() MAOPT_REQUIRES(mutex_);

  Config config_;
  /// Leaf lock (DESIGN.md "Lock hierarchy"): acquired below
  /// EvalService::inflight_mutex_ (the dedup re-check calls lookup() with the
  /// in-flight map locked); nothing is acquired while this is held. Guards
  /// the whole store — including the journal streams, so L2 reads and
  /// appends are serialized with the index they are consistent with.
  mutable Mutex mutex_;
  std::unordered_map<CacheKey, Entry, CacheKeyHash> entries_ MAOPT_GUARDED_BY(mutex_);
  std::list<CacheKey> lru_ MAOPT_GUARDED_BY(mutex_);  ///< front = most recent
  std::vector<CacheKey> insertion_order_ MAOPT_GUARDED_BY(mutex_);
  mutable std::ifstream reader_ MAOPT_GUARDED_BY(mutex_);
  std::ofstream writer_ MAOPT_GUARDED_BY(mutex_);
  std::uint64_t journal_bytes_ MAOPT_GUARDED_BY(mutex_) = 0;
};

}  // namespace maopt::eval
