// perfbench_bin — runs one benchmark workload and prints its raw
// samples as one JSON object on stdout. perfbench/run.py builds this
// program, runs it, checks the samples and reduces them to metrics.
//
//   perfbench_bin --workload paper_ota|yield_mc|daemon_jobs --seed N
//                 --seconds S --trace 0|1 --work-dir DIR --inputs DIR
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "common/log.hpp"
#include "obs/jsonl_writer.hpp"
#include "workloads.hpp"

namespace {

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);  // round-trips every double
  out += buf;
}

void append_string(std::string& out, const std::string& s) {
  out += '"' + maopt::obs::json_escape(s) + '"';
}

template <class Map, class Put>
void append_object(std::string& out, const Map& map, Put&& put) {
  out += '{';
  bool first = true;
  for (const auto& [key, value] : map) {
    if (!first) out += ',';
    first = false;
    append_string(out, key);
    out += ':';
    put(out, value);
  }
  out += '}';
}

std::string to_json(const perfbench::RunSpec& spec, const std::vector<perfbench::Sample>& samples) {
  std::string out = "{\"workload\":";
  append_string(out, spec.workload);
  out += ",\"seed\":" + std::to_string(spec.seed);
#if defined(__clang__)
  out += ",\"compiler\":\"clang " __clang_version__ "\"";
#elif defined(__GNUC__)
  out += ",\"compiler\":\"gcc " __VERSION__ "\"";
#else
  out += ",\"compiler\":\"unknown\"";
#endif
  out += ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"";
  out += ",\"peak_rss_mb\":";
  append_number(out, perfbench::peak_rss_mb());
  out += ",\"samples\":[";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const perfbench::Sample& s = samples[i];
    if (i > 0) out += ',';
    out += s.traced ? "{\"traced\":true,\"values\":" : "{\"traced\":false,\"values\":";
    append_object(out, s.values, append_number);
    out += ",\"series\":";
    append_object(out, s.series, [](std::string& o, const std::vector<double>& v) {
      o += '[';
      for (std::size_t k = 0; k < v.size(); ++k) {
        if (k > 0) o += ',';
        append_number(o, v[k]);
      }
      o += ']';
    });
    out += ",\"notes\":";
    append_object(out, s.notes, append_string);
    out += '}';
  }
  out += "]}";
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_bin --workload paper_ota|yield_mc|daemon_jobs --seed N "
               "--seconds S --trace 0|1 --work-dir DIR --inputs DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  maopt::set_log_level(maopt::LogLevel::Warn);
  try {
    perfbench::RunSpec spec;
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") spec.workload = value;
      else if (flag == "--seed") spec.seed = std::stoull(value);
      else if (flag == "--seconds") spec.seconds = std::stod(value);
      else if (flag == "--trace") spec.trace = value == "1";
      else if (flag == "--work-dir") spec.work_dir = value;
      else if (flag == "--inputs") spec.inputs_dir = value;
      else return usage();
    }
    if (argc % 2 == 0 || spec.work_dir.empty() || spec.inputs_dir.empty()) return usage();
    std::filesystem::create_directories(spec.work_dir);
    std::vector<perfbench::Sample> samples;
    if (spec.workload == "paper_ota") samples = perfbench::run_paper_ota(spec);
    else if (spec.workload == "yield_mc") samples = perfbench::run_yield_mc(spec);
    else if (spec.workload == "daemon_jobs") samples = perfbench::run_daemon_jobs(spec);
    else return usage();
    const std::string json = to_json(spec, samples);
    std::fwrite(json.data(), 1, json.size(), stdout);
    std::fputc('\n', stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_bin: %s\n", e.what());
    return 1;
  }
}
