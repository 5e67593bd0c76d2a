#include "eval/result_cache.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"

namespace maopt::eval {

namespace {

constexpr char kJournalMagic[8] = {'M', 'A', 'O', 'P', 'T', 'E', 'V', 'C'};
constexpr std::uint64_t kJournalHeaderBytes =
    sizeof(kJournalMagic) + sizeof(std::uint32_t) + sizeof(double);

// The lo lane folds the fingerprint under a different seed so hi/lo are
// decorrelated and the effective key width is genuinely 128 bits.
constexpr std::uint64_t kKeySeedHi = kHashSeed;
constexpr std::uint64_t kKeySeedLo = 0x9AE16A3B2F90404FULL;

template <typename T>
void put_pod(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

void put_vec(std::ostream& out, const Vec& v) {
  put_pod<std::uint64_t>(out, v.size());
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(double)));
}

/// Checked reads return false on truncation instead of throwing: a torn tail
/// after a crash is an expected state the loader recovers from.
template <typename T>
bool get_pod(std::istream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  return static_cast<bool>(in);
}

/// `end` is the journal's size in bytes: a length the bytes after it cannot
/// hold marks a torn or corrupt record, rejected before anything is
/// allocated for it.
bool get_vec(std::istream& in, std::uint64_t end, Vec& v) {
  std::uint64_t n = 0;
  if (!get_pod(in, n)) return false;
  const auto pos = static_cast<std::uint64_t>(in.tellg());
  if (pos > end || n > (end - pos) / sizeof(double)) return false;
  v.resize(n);
  in.read(reinterpret_cast<char*>(v.data()), static_cast<std::streamsize>(n * sizeof(double)));
  return static_cast<bool>(in);
}

std::uint64_t record_bytes(const CachedEval& eval) {
  return 3 * sizeof(std::uint64_t)  // key.hi, key.lo, problem_fp
         + sizeof(std::uint64_t) + eval.x.size() * sizeof(double) + sizeof(std::uint64_t) +
         eval.metrics.size() * sizeof(double);
}

}  // namespace

std::uint64_t problem_fingerprint(const ckt::SizingProblem& problem) {
  const ckt::ProblemSpec& spec = problem.spec();
  std::uint64_t h = hash_bytes(spec.name.data(), spec.name.size());
  h = hash_bytes(spec.target_name.data(), spec.target_name.size(), h);
  h = hash_design({&spec.target_weight, 1}, h);
  h = hash_u64(spec.constraints.size(), h);
  for (const auto& c : spec.constraints) {
    h = hash_bytes(c.name.data(), c.name.size(), h);
    h = hash_u64(static_cast<std::uint64_t>(c.kind), h);
    const double bw[2] = {c.bound, c.weight};
    h = hash_design(bw, h);
  }
  h = hash_u64(problem.dim(), h);
  h = hash_design(problem.lower_bounds(), h);
  h = hash_design(problem.upper_bounds(), h);
  for (const bool b : problem.integer_mask()) h = hash_u64(b ? 1 : 0, h);
  // Data-defined problems (deck-compiled circuits) carry a content hash of
  // their semantic payload; folded only when present so every fingerprint —
  // and every on-disk journal — of the built-in problems stays unchanged.
  if (const std::uint64_t content = problem.content_fingerprint(); content != 0)
    h = hash_u64(content, h);
  return h;
}

std::uint64_t variation_fingerprint(const ckt::ProcessVariation& pv) {
  if (!pv.enabled()) return 0;
  const double fields[6] = {pv.sigma_vth,      pv.sigma_kp_rel,  pv.nmos_vth_shift,
                            pv.pmos_vth_shift, pv.nmos_kp_factor, pv.pmos_kp_factor};
  return hash_design(fields, hash_u64(pv.seed, kKeySeedLo));
}

CacheKey make_cache_key(std::uint64_t problem_fp, std::span<const double> x) {
  CacheKey key;
  key.hi = hash_design(x, hash_u64(problem_fp, kKeySeedHi));
  key.lo = hash_design(x, hash_u64(problem_fp, kKeySeedLo));
  return key;
}

ResultCache::ResultCache(Config config) : config_(std::move(config)) {
  MAOPT_CHECK(config_.memory_capacity >= 1, "ResultCache: memory_capacity must be >= 1");
  // No concurrent access is possible during construction, but load_journal()
  // REQUIRES the cache lock (it touches every guarded member), so take it —
  // uncontended, and the annotation contract holds on every path.
  const MutexLock lock(mutex_);
  if (!config_.journal_path.empty()) load_journal();
}

void ResultCache::load_journal() {
  const std::filesystem::path path(config_.journal_path);
  if (path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(path.parent_path(), ec);
  }

  bool dirty = false;
  std::ifstream in(config_.journal_path, std::ios::binary);
  if (in) {
    char magic[sizeof(kJournalMagic)] = {};
    std::uint32_t version = 0;
    double epsilon = 0.0;
    in.read(magic, sizeof(magic));
    if (!in || std::memcmp(magic, kJournalMagic, sizeof(magic)) != 0 ||
        !get_pod(in, version) || !get_pod(in, epsilon)) {
      log_warn() << "eval cache: '" << config_.journal_path
                 << "' is not a result journal; starting empty";
      dirty = true;
    } else if (version != kJournalFormatVersion) {
      log_warn() << "eval cache: journal version " << version << " unsupported; starting empty";
      dirty = true;
    } else if (epsilon != 0.0) {
      // Keys were computed on a quantization grid (an older writer): every
      // address in the file is meaningless for bit-exact keys.
      log_warn() << "eval cache: journal quantization epsilon " << epsilon
                 << " != 0; starting empty";
      dirty = true;
    } else {
      in.seekg(0, std::ios::end);
      const auto file_end = static_cast<std::uint64_t>(in.tellg());
      in.seekg(static_cast<std::streamoff>(kJournalHeaderBytes));
      journal_bytes_ = kJournalHeaderBytes;
      while (true) {
        const auto offset = static_cast<std::uint64_t>(in.tellg());
        Entry entry;
        CacheKey key;
        if (!get_pod(in, key.hi)) break;  // clean EOF
        if (!get_pod(in, key.lo) || !get_pod(in, entry.eval.problem_fp) ||
            !get_vec(in, file_end, entry.eval.x) || !get_vec(in, file_end, entry.eval.metrics)) {
          log_warn() << "eval cache: truncated journal tail in '" << config_.journal_path
                     << "'; keeping " << entries_.size() << " complete records";
          dirty = true;
          break;
        }
        entry.on_disk = true;
        entry.file_offset = offset;
        entry.eval.x.clear();  // L2-resident only until first lookup
        entry.eval.metrics.clear();
        if (entries_.emplace(key, std::move(entry)).second) {
          insertion_order_.push_back(key);
        } else {
          dirty = true;  // duplicate key: compaction will drop it
        }
        journal_bytes_ = static_cast<std::uint64_t>(in.tellg());
      }
    }
    in.close();
  }

  reader_.open(config_.journal_path, std::ios::binary);
  if (dirty || journal_bytes_ < kJournalHeaderBytes) {
    compact_locked();  // constructor: no concurrent access yet
  }
  if (!reader_.is_open()) reader_.open(config_.journal_path, std::ios::binary);
  writer_.open(config_.journal_path, std::ios::binary | std::ios::app);
  if (!writer_)
    throw std::runtime_error("eval cache: cannot open '" + config_.journal_path +
                             "' for appending");
}

std::optional<CachedEval> ResultCache::read_record_at(std::uint64_t offset) const {
  reader_.clear();
  reader_.seekg(static_cast<std::streamoff>(offset));
  CachedEval eval;
  CacheKey key;
  if (!get_pod(reader_, key.hi) || !get_pod(reader_, key.lo) ||
      !get_pod(reader_, eval.problem_fp) || !get_vec(reader_, journal_bytes_, eval.x) ||
      !get_vec(reader_, journal_bytes_, eval.metrics))
    return std::nullopt;
  return eval;
}

void ResultCache::evict_overflow() {
  while (lru_.size() > config_.memory_capacity) {
    const auto victim = entries_.find(lru_.back());
    lru_.pop_back();
    if (victim == entries_.end()) continue;
    victim->second.in_l1 = false;
    if (victim->second.on_disk) {
      // Keep the index entry (fingerprint + offset); drop the payload.
      victim->second.eval.x.clear();
      victim->second.eval.x.shrink_to_fit();
      victim->second.eval.metrics.clear();
      victim->second.eval.metrics.shrink_to_fit();
    } else {
      entries_.erase(victim);  // memory-only cache: the result is gone
    }
  }
}

std::optional<Vec> ResultCache::lookup(const CacheKey& key) {
  const MutexLock lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  Entry& entry = it->second;
  if (entry.in_l1) {
    lru_.splice(lru_.begin(), lru_, entry.lru_pos);
    return entry.eval.metrics;
  }
  if (!entry.on_disk) return std::nullopt;
  auto eval = read_record_at(entry.file_offset);
  if (!eval.has_value()) return std::nullopt;
  entry.eval = std::move(*eval);
  entry.in_l1 = true;
  lru_.push_front(key);
  entry.lru_pos = lru_.begin();
  Vec metrics = entry.eval.metrics;  // copy before eviction could drop `entry`
  evict_overflow();
  return metrics;
}

void ResultCache::insert(const CacheKey& key, std::uint64_t problem_fp, const Vec& x,
                         const Vec& metrics) {
  const MutexLock lock(mutex_);
  if (entries_.contains(key)) return;
  Entry entry;
  entry.eval.problem_fp = problem_fp;
  entry.eval.x = x;
  entry.eval.metrics = metrics;
  if (writer_.is_open()) append_journal(key, entry);
  auto [it, inserted] = entries_.emplace(key, std::move(entry));
  (void)inserted;
  insertion_order_.push_back(key);
  lru_.push_front(key);
  it->second.in_l1 = true;
  it->second.lru_pos = lru_.begin();
  evict_overflow();
}

void ResultCache::append_journal(const CacheKey& key, Entry& entry) {
  entry.file_offset = journal_bytes_;
  put_pod<std::uint64_t>(writer_, key.hi);
  put_pod<std::uint64_t>(writer_, key.lo);
  put_pod<std::uint64_t>(writer_, entry.eval.problem_fp);
  put_vec(writer_, entry.eval.x);
  put_vec(writer_, entry.eval.metrics);
  writer_.flush();  // one record per append: a crash loses at most this one
  if (!writer_) {
    log_warn() << "eval cache: journal append failed; entry kept in memory only";
    return;
  }
  entry.on_disk = true;
  journal_bytes_ += record_bytes(entry.eval);
}

std::vector<CachedEval> ResultCache::entries_for(std::uint64_t problem_fp) const {
  const MutexLock lock(mutex_);
  std::vector<CachedEval> out;
  for (const CacheKey& key : insertion_order_) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) continue;
    const Entry& entry = it->second;
    if (entry.eval.problem_fp != problem_fp) continue;
    if (entry.in_l1) {
      out.push_back(entry.eval);
    } else if (entry.on_disk) {
      auto eval = read_record_at(entry.file_offset);
      if (eval.has_value()) out.push_back(std::move(*eval));
    }
  }
  return out;
}

void ResultCache::compact() {
  const MutexLock lock(mutex_);
  writer_.close();
  compact_locked();
  writer_.open(config_.journal_path, std::ios::binary | std::ios::app);
}

void ResultCache::compact_locked() {
  if (config_.journal_path.empty()) return;
  // Materialize every surviving record before replacing the file we read from.
  std::vector<std::pair<CacheKey, CachedEval>> survivors;
  survivors.reserve(insertion_order_.size());
  for (const CacheKey& key : insertion_order_) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) continue;
    if (it->second.in_l1) {
      survivors.emplace_back(key, it->second.eval);
    } else if (it->second.on_disk) {
      auto eval = read_record_at(it->second.file_offset);
      if (eval.has_value()) survivors.emplace_back(key, std::move(*eval));
    }
  }
  reader_.close();

  const std::string tmp = config_.journal_path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("eval cache: cannot open '" + tmp + "' for writing");
    out.write(kJournalMagic, sizeof(kJournalMagic));
    put_pod<std::uint32_t>(out, kJournalFormatVersion);
    put_pod<double>(out, 0.0);  // quantization epsilon: keys are bit-exact
    for (auto& [key, eval] : survivors) {
      put_pod<std::uint64_t>(out, key.hi);
      put_pod<std::uint64_t>(out, key.lo);
      put_pod<std::uint64_t>(out, eval.problem_fp);
      put_vec(out, eval.x);
      put_vec(out, eval.metrics);
    }
    out.flush();
    if (!out) throw std::runtime_error("eval cache: write failed for '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), config_.journal_path.c_str()) != 0)
    throw std::runtime_error("eval cache: rename '" + tmp + "' -> '" + config_.journal_path +
                             "' failed");

  // Rebuild the in-memory index against the compacted offsets.
  entries_.clear();
  lru_.clear();
  insertion_order_.clear();
  std::uint64_t offset = kJournalHeaderBytes;
  for (auto& [key, eval] : survivors) {
    Entry entry;
    entry.on_disk = true;
    entry.file_offset = offset;
    offset += record_bytes(eval);
    entry.eval.problem_fp = eval.problem_fp;
    if (lru_.size() < config_.memory_capacity) {
      entry.eval = std::move(eval);
      lru_.push_back(key);
      entry.in_l1 = true;
      entry.lru_pos = std::prev(lru_.end());
    }
    entries_.emplace(key, std::move(entry));
    insertion_order_.push_back(key);
  }
  journal_bytes_ = offset;
  reader_.open(config_.journal_path, std::ios::binary);
}

std::size_t ResultCache::size() const {
  const MutexLock lock(mutex_);
  return entries_.size();
}

}  // namespace maopt::eval
