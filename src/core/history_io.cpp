#include "core/history_io.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/thread_annotations.hpp"

namespace maopt::core {

namespace {
std::ofstream open_or_throw(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open '" + path + "' for writing");
  return out;
}

// --- checkpoint binary primitives -----------------------------------------
// Fixed-width little-endian-as-stored POD fields; strings and vectors are
// u64 length + payload. Every read is checked so truncated or corrupted
// files fail loudly instead of yielding a garbage history.

constexpr char kCheckpointMagic[8] = {'M', 'A', 'O', 'P', 'T', 'C', 'K', 'P'};

template <typename T>
void put_pod(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

void put_string(std::ostream& out, const std::string& s) {
  put_pod<std::uint64_t>(out, s.size());
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void put_vec(std::ostream& out, const linalg::Vec& v) {
  put_pod<std::uint64_t>(out, v.size());
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(double)));
}

template <typename T>
T get_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  if (!in) throw std::runtime_error("checkpoint: truncated file");
  return value;
}

/// Reads an element count and rejects one the rest of the file cannot hold:
/// `end` is the file size and `elem_bytes` the smallest encoding of one
/// element, so a corrupt count fails before anything is allocated for it.
std::uint64_t get_count(std::istream& in, std::uint64_t end, std::uint64_t elem_bytes) {
  const auto n = get_pod<std::uint64_t>(in);
  const auto pos = static_cast<std::uint64_t>(in.tellg());
  if (pos > end || n > (end - pos) / elem_bytes)
    throw std::runtime_error("checkpoint: corrupt element count");
  return n;
}

std::string get_string(std::istream& in, std::uint64_t end) {
  std::string s(get_count(in, end, 1), '\0');
  in.read(s.data(), static_cast<std::streamsize>(s.size()));
  if (!in) throw std::runtime_error("checkpoint: truncated file");
  return s;
}

linalg::Vec get_vec(std::istream& in, std::uint64_t end) {
  linalg::Vec v(get_count(in, end, sizeof(double)));
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(v.size() * sizeof(double)));
  if (!in) throw std::runtime_error("checkpoint: truncated file");
  return v;
}
}  // namespace

void write_records_csv(std::ostream& out, const RunHistory& history,
                       const SizingProblem& problem) {
  out << "index,phase";
  for (const auto& name : problem.parameter_names()) out << "," << name;
  out << "," << problem.spec().target_name;
  for (const auto& c : problem.spec().constraints) out << "," << c.name;
  out << ",fom,feasible,simulation_ok\n";

  for (std::size_t i = 0; i < history.records.size(); ++i) {
    const auto& r = history.records[i];
    out << i << "," << (i < history.num_initial ? "initial" : "search");
    for (const double v : r.x) out << "," << v;
    for (const double m : r.metrics) out << "," << m;
    out << "," << r.fom << "," << (r.feasible ? 1 : 0) << "," << (r.simulation_ok ? 1 : 0)
        << "\n";
  }
}

void write_records_csv(const std::string& path, const RunHistory& history,
                       const SizingProblem& problem) {
  auto out = open_or_throw(path);
  write_records_csv(out, history, problem);
}

void write_trajectory_csv(std::ostream& out, const RunHistory& history) {
  out << "simulation,best_fom\n";
  for (std::size_t i = 0; i < history.best_fom_after.size(); ++i)
    out << (i + 1) << "," << history.best_fom_after[i] << "\n";
}

void write_trajectory_csv(const std::string& path, const RunHistory& history) {
  auto out = open_or_throw(path);
  write_trajectory_csv(out, history);
}

namespace {
/// Serializes checkpoint writes process-wide. The tmp name is derived from
/// `path` alone, so two concurrent runs checkpointing to the same path would
/// interleave writes into one tmp file and commit a torn snapshot — a latent
/// race once many runs share a process (the multi-tenant daemon). A leaf
/// lock held only for the write + rename; checkpoints are cadence-paced, so
/// contention is nil.
Mutex g_checkpoint_mutex;
}  // namespace

std::uint64_t save_checkpoint(const std::string& path, const RunHistory& history,
                              std::uint64_t seed) {
  const MutexLock io_lock(g_checkpoint_mutex);
  const std::string tmp = path + ".tmp";
  std::uint64_t bytes = 0;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("checkpoint: cannot open '" + tmp + "' for writing");
    out.write(kCheckpointMagic, sizeof(kCheckpointMagic));
    put_pod<std::uint32_t>(out, kCheckpointFormatVersion);
    put_pod<std::uint64_t>(out, seed);
    put_string(out, history.algorithm);
    put_pod<std::uint64_t>(out, history.num_initial);
    put_pod<std::uint8_t>(out, history.aborted ? 1 : 0);
    put_string(out, history.abort_reason);
    put_pod<double>(out, history.wall_seconds);
    put_pod<double>(out, history.sim_seconds);
    put_pod<double>(out, history.train_seconds);
    put_pod<double>(out, history.ns_seconds);
    put_pod<std::uint64_t>(out, history.records.size());
    for (const auto& r : history.records) {
      put_vec(out, r.x);
      put_vec(out, r.metrics);
      put_pod<double>(out, r.fom);
      put_pod<std::uint8_t>(out, r.feasible ? 1 : 0);
      put_pod<std::uint8_t>(out, r.simulation_ok ? 1 : 0);
      put_pod<std::uint8_t>(out, r.degraded ? 1 : 0);
      put_pod<std::uint32_t>(out, r.variants_failed);
      put_pod<std::uint32_t>(out, r.variants_total);
    }
    put_pod<std::uint64_t>(out, history.best_fom_after.size());
    out.write(reinterpret_cast<const char*>(history.best_fom_after.data()),
              static_cast<std::streamsize>(history.best_fom_after.size() * sizeof(double)));
    out.flush();
    if (!out) throw std::runtime_error("checkpoint: write failed for '" + tmp + "'");
    bytes = static_cast<std::uint64_t>(out.tellp());
  }
  // The rename is the commit point: a crash before it leaves any previous
  // checkpoint untouched; after it the new snapshot is fully visible.
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    throw std::runtime_error("checkpoint: rename '" + tmp + "' -> '" + path + "' failed");
  return bytes;
}

RunCheckpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw std::runtime_error("checkpoint: cannot open '" + path + "'");
  const auto end = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  char magic[sizeof(kCheckpointMagic)] = {};
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kCheckpointMagic, sizeof(magic)) != 0)
    throw std::runtime_error("checkpoint: '" + path + "' is not a MA-Opt checkpoint");

  RunCheckpoint ckpt;
  ckpt.version = get_pod<std::uint32_t>(in);
  if (ckpt.version != 1 && ckpt.version != kCheckpointFormatVersion)
    throw std::runtime_error("checkpoint: unsupported format version " +
                             std::to_string(ckpt.version));
  ckpt.seed = get_pod<std::uint64_t>(in);
  RunHistory& h = ckpt.history;
  h.algorithm = get_string(in, end);
  h.num_initial = get_pod<std::uint64_t>(in);
  h.aborted = get_pod<std::uint8_t>(in) != 0;
  h.abort_reason = get_string(in, end);
  h.wall_seconds = get_pod<double>(in);
  h.sim_seconds = get_pod<double>(in);
  h.train_seconds = get_pod<double>(in);
  h.ns_seconds = get_pod<double>(in);
  // A record is at least two empty vectors, the FoM and two flags (v2 adds
  // a flag and two counts).
  const std::uint64_t min_record_bytes = 2 * sizeof(std::uint64_t) + sizeof(double) + 2 +
                                         (ckpt.version >= 2 ? 1 + 2 * sizeof(std::uint32_t) : 0);
  const std::uint64_t num_records = get_count(in, end, min_record_bytes);
  h.records.reserve(num_records);
  for (std::uint64_t i = 0; i < num_records; ++i) {
    SimRecord r;
    r.x = get_vec(in, end);
    r.metrics = get_vec(in, end);
    r.fom = get_pod<double>(in);
    r.feasible = get_pod<std::uint8_t>(in) != 0;
    r.simulation_ok = get_pod<std::uint8_t>(in) != 0;
    if (ckpt.version >= 2) {
      // v1 predates sweeps: its records keep the single-point defaults.
      r.degraded = get_pod<std::uint8_t>(in) != 0;
      r.variants_failed = get_pod<std::uint32_t>(in);
      r.variants_total = get_pod<std::uint32_t>(in);
    }
    h.records.push_back(std::move(r));
  }
  h.best_fom_after.resize(get_count(in, end, sizeof(double)));
  in.read(reinterpret_cast<char*>(h.best_fom_after.data()),
          static_cast<std::streamsize>(h.best_fom_after.size() * sizeof(double)));
  if (!in) throw std::runtime_error("checkpoint: truncated file");
  if (h.num_initial > h.records.size())
    throw std::runtime_error("checkpoint: corrupt header (num_initial > records)");
  return ckpt;
}

}  // namespace maopt::core
