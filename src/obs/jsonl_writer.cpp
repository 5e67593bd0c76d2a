#include "obs/jsonl_writer.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace maopt::obs {

namespace {

/// JSON has no NaN/Inf literals; non-finite values serialize as null.
void append_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

void append_string(std::string& out, const std::string& s) {
  out += '"';
  out += json_escape(s);
  out += '"';
}

void append_bool(std::string& out, bool v) { out += v ? "true" : "false"; }

std::string event_head(const char* name) {
  std::string line = "{\"event\":\"";
  line += name;
  line += '"';
  return line;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

JsonlObserver::JsonlObserver(const std::string& path) : path_(path) {
  // out_ is guarded by io_mutex_; construction is single-threaded but the
  // lock keeps the annotation contract uniform (same idiom as ResultCache).
  const MutexLock lock(io_mutex_);
  out_.open(path, std::ios::out | std::ios::app);
  if (!out_) throw std::runtime_error("JsonlObserver: cannot open " + path);
}

void JsonlObserver::write_line(const std::string& line) {
  const MutexLock lock(io_mutex_);
  out_ << line << '\n';
  out_.flush();
}

void JsonlObserver::on_run_started(const RunStarted& e) {
  std::string line = event_head("run_started");
  line += ",\"algorithm\":";
  append_string(line, e.algorithm);
  line += ",\"problem\":";
  append_string(line, e.problem);
  line += ",\"seed\":";
  append_u64(line, e.seed);
  line += ",\"budget\":";
  append_u64(line, e.simulation_budget);
  line += ",\"num_initial\":";
  append_u64(line, e.num_initial);
  line += ",\"dim\":";
  append_u64(line, e.dim);
  line += ",\"t\":";
  append_double(line, since_open_.elapsed_seconds());
  line += '}';
  write_line(line);
}

void JsonlObserver::on_simulation_completed(const SimulationCompleted& e) {
  std::string line = event_head("simulation_completed");
  line += ",\"index\":";
  append_u64(line, e.index);
  line += ",\"iteration\":";
  append_u64(line, e.iteration);
  line += ",\"lane\":";
  line += std::to_string(e.lane);
  line += ",\"ok\":";
  append_bool(line, e.ok);
  line += ",\"feasible\":";
  append_bool(line, e.feasible);
  line += ",\"fom\":";
  append_double(line, e.fom);
  line += ",\"seconds\":";
  append_double(line, e.seconds);
  line += ",\"retries\":";
  append_u64(line, e.retries);
  line += ",\"failure_kind\":";
  append_string(line, e.failure_kind);
  line += ",\"cache_hit\":";
  append_bool(line, e.cache_hit);
  line += ",\"coalesced\":";
  append_bool(line, e.coalesced);
  line += ",\"t\":";
  append_double(line, since_open_.elapsed_seconds());
  line += '}';
  write_line(line);
}

void JsonlObserver::on_iteration_completed(const IterationCompleted& e) {
  std::string line = event_head("iteration_completed");
  line += ",\"iteration\":";
  append_u64(line, e.iteration);
  line += ",\"simulations\":";
  append_u64(line, e.simulations_done);
  line += ",\"best_fom\":";
  append_double(line, e.best_fom);
  line += ",\"feasible_found\":";
  append_bool(line, e.feasible_found);
  line += ",\"near_sampling\":";
  append_bool(line, e.near_sampling);
  line += ",\"wall_seconds\":";
  append_double(line, e.wall_seconds);
  line += ",\"critic_loss\":";
  append_double(line, e.critic_loss);
  line += ",\"spans\":[";
  for (std::size_t i = 0; i < e.spans.size(); ++i) {
    if (i > 0) line += ',';
    line += "{\"phase\":";
    append_string(line, to_string(e.spans[i].phase));
    line += ",\"lane\":";
    line += std::to_string(e.spans[i].lane);
    line += ",\"seconds\":";
    append_double(line, e.spans[i].seconds);
    line += '}';
  }
  line += "],\"t\":";
  append_double(line, since_open_.elapsed_seconds());
  line += '}';
  write_line(line);
}

void JsonlObserver::on_checkpoint_written(const CheckpointWritten& e) {
  std::string line = event_head("checkpoint_written");
  line += ",\"path\":";
  append_string(line, e.path);
  line += ",\"iteration\":";
  append_u64(line, e.iteration);
  line += ",\"simulations\":";
  append_u64(line, e.simulations_done);
  line += ",\"bytes\":";
  append_u64(line, e.bytes);
  line += ",\"t\":";
  append_double(line, since_open_.elapsed_seconds());
  line += '}';
  write_line(line);
}

void JsonlObserver::on_run_finished(const RunFinished& e) {
  std::string line = event_head("run_finished");
  line += ",\"algorithm\":";
  append_string(line, e.algorithm);
  line += ",\"simulations\":";
  append_u64(line, e.simulations);
  line += ",\"best_fom\":";
  append_double(line, e.best_fom);
  line += ",\"feasible\":";
  append_bool(line, e.feasible);
  line += ",\"aborted\":";
  append_bool(line, e.aborted);
  line += ",\"abort_reason\":";
  append_string(line, e.abort_reason);
  line += ",\"wall_seconds\":";
  append_double(line, e.wall_seconds);
  line += ",\"counters\":{\"simulations\":";
  append_u64(line, e.counters.simulations);
  line += ",\"failures\":";
  append_u64(line, e.counters.failures);
  line += ",\"retries\":";
  append_u64(line, e.counters.retries);
  line += ",\"iterations\":";
  append_u64(line, e.counters.iterations);
  line += ",\"ns_iterations\":";
  append_u64(line, e.counters.ns_iterations);
  line += ",\"checkpoints\":";
  append_u64(line, e.counters.checkpoints);
  line += ",\"checkpoint_bytes\":";
  append_u64(line, e.counters.checkpoint_bytes);
  line += ",\"cache_hits\":";
  append_u64(line, e.counters.cache_hits);
  line += ",\"cache_misses\":";
  append_u64(line, e.counters.cache_misses);
  line += ",\"cache_coalesced\":";
  append_u64(line, e.counters.cache_coalesced);
  line += "},\"t\":";
  append_double(line, since_open_.elapsed_seconds());
  line += '}';
  write_line(line);
}

void JsonlObserver::on_sweep_started(const SweepStarted& e) {
  std::string line = event_head("sweep_started");
  line += ",\"sweep_id\":";
  append_u64(line, e.sweep_id);
  line += ",\"kind\":";
  append_string(line, e.kind);
  line += ",\"aggregation\":";
  append_string(line, e.aggregation);
  line += ",\"variants\":";
  append_u64(line, e.variants);
  line += ",\"t\":";
  append_double(line, since_open_.elapsed_seconds());
  line += '}';
  write_line(line);
}

void JsonlObserver::on_sweep_variant_evaluated(const SweepVariantEvaluated& e) {
  std::string line = event_head("sweep_variant");
  line += ",\"sweep_id\":";
  append_u64(line, e.sweep_id);
  line += ",\"variant\":";
  append_u64(line, e.variant);
  line += ",\"label\":";
  append_string(line, e.label);
  line += ",\"ok\":";
  append_bool(line, e.ok);
  line += ",\"fom0\":";
  append_double(line, e.fom0);
  line += ",\"seconds\":";
  append_double(line, e.seconds);
  line += ",\"t\":";
  append_double(line, since_open_.elapsed_seconds());
  line += '}';
  write_line(line);
}

void JsonlObserver::on_job_submitted(const JobSubmitted& e) {
  std::string line = event_head("job_submitted");
  line += ",\"job_id\":";
  append_u64(line, e.job_id);
  line += ",\"name\":";
  append_string(line, e.name);
  line += ",\"tenant\":";
  append_string(line, e.tenant);
  line += ",\"problem\":";
  append_string(line, e.problem);
  line += ",\"algorithm\":";
  append_string(line, e.algorithm);
  line += ",\"seed\":";
  append_u64(line, e.seed);
  line += ",\"simulation_budget\":";
  append_u64(line, e.simulation_budget);
  line += ",\"t\":";
  append_double(line, since_open_.elapsed_seconds());
  line += '}';
  write_line(line);
}

void JsonlObserver::on_job_state_changed(const JobStateChanged& e) {
  std::string line = event_head("job_state_changed");
  line += ",\"job_id\":";
  append_u64(line, e.job_id);
  line += ",\"name\":";
  append_string(line, e.name);
  line += ",\"from\":";
  append_string(line, e.from);
  line += ",\"to\":";
  append_string(line, e.to);
  line += ",\"reason\":";
  append_string(line, e.reason);
  line += ",\"t\":";
  append_double(line, since_open_.elapsed_seconds());
  line += '}';
  write_line(line);
}

void JsonlObserver::on_job_finished(const JobFinished& e) {
  std::string line = event_head("job_finished");
  line += ",\"job_id\":";
  append_u64(line, e.job_id);
  line += ",\"name\":";
  append_string(line, e.name);
  line += ",\"tenant\":";
  append_string(line, e.tenant);
  line += ",\"state\":";
  append_string(line, e.state);
  line += ",\"simulations\":";
  append_u64(line, e.simulations);
  line += ",\"best_fom\":";
  append_double(line, e.best_fom);
  line += ",\"feasible\":";
  append_bool(line, e.feasible);
  line += ",\"wall_seconds\":";
  append_double(line, e.wall_seconds);
  line += ",\"counters\":{\"simulations\":";
  append_u64(line, e.counters.simulations);
  line += ",\"failures\":";
  append_u64(line, e.counters.failures);
  line += ",\"retries\":";
  append_u64(line, e.counters.retries);
  line += ",\"cache_hits\":";
  append_u64(line, e.counters.cache_hits);
  line += ",\"cache_misses\":";
  append_u64(line, e.counters.cache_misses);
  line += ",\"cache_coalesced\":";
  append_u64(line, e.counters.cache_coalesced);
  line += "},\"t\":";
  append_double(line, since_open_.elapsed_seconds());
  line += '}';
  write_line(line);
}

void JsonlObserver::on_sweep_completed(const SweepCompleted& e) {
  std::string line = event_head("sweep_completed");
  line += ",\"sweep_id\":";
  append_u64(line, e.sweep_id);
  line += ",\"ok\":";
  append_u64(line, e.variants_ok);
  line += ",\"failed\":";
  append_u64(line, e.variants_failed);
  line += ",\"degraded\":";
  append_bool(line, e.degraded);
  line += ",\"policy\":";
  append_string(line, e.policy);
  line += ",\"seconds\":";
  append_double(line, e.seconds);
  line += ",\"t\":";
  append_double(line, since_open_.elapsed_seconds());
  line += '}';
  write_line(line);
}

}  // namespace maopt::obs
