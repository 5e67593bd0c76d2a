// JsonlObserver tests: escaping, line schema, and — the property the sink
// exists for — every line stays parseable when the run itself is stormy
// (fault-injected simulator behind the resilient evaluator).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "../support/variation_test_problems.hpp"
#include "circuits/analytic_problems.hpp"
#include "circuits/resilient_problem.hpp"
#include "circuits/robust_problem.hpp"
#include "core/ma_optimizer.hpp"
#include "core/random_search.hpp"
#include "obs/jsonl_writer.hpp"

namespace maopt::obs {
namespace {

// --- Minimal JSON validator -------------------------------------------------
// Recursive-descent check over the subset the writer emits (objects, arrays,
// strings, numbers, true/false/null). No value extraction beyond top-level
// string fields; the point is "a standard parser would accept this line".

struct JsonCursor {
  const std::string& s;
  std::size_t i = 0;

  void skip_ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
  }
  bool eat(char c) {
    skip_ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  bool parse_string(std::string* out) {
    skip_ws();
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    std::string value;
    while (i < s.size() && s[i] != '"') {
      if (static_cast<unsigned char>(s[i]) < 0x20) return false;  // raw control char
      if (s[i] == '\\') {
        if (i + 1 >= s.size()) return false;
        const char esc = s[i + 1];
        if (esc == 'u') {
          if (i + 5 >= s.size()) return false;
          for (std::size_t k = i + 2; k < i + 6; ++k)
            if (std::isxdigit(static_cast<unsigned char>(s[k])) == 0) return false;
          i += 6;
          value.push_back('?');
          continue;
        }
        if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' && esc != 'f' && esc != 'n' &&
            esc != 'r' && esc != 't')
          return false;
        value.push_back(esc);
        i += 2;
        continue;
      }
      value.push_back(s[i]);
      ++i;
    }
    if (i >= s.size()) return false;
    ++i;  // closing quote
    if (out != nullptr) *out = value;
    return true;
  }
  bool parse_number() {
    skip_ws();
    const std::size_t start = i;
    if (i < s.size() && s[i] == '-') ++i;
    std::size_t digits = 0;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])) != 0) ++i, ++digits;
    if (digits == 0) return false;
    if (i < s.size() && s[i] == '.') {
      ++i;
      digits = 0;
      while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])) != 0) ++i, ++digits;
      if (digits == 0) return false;
    }
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
      ++i;
      if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
      digits = 0;
      while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i])) != 0) ++i, ++digits;
      if (digits == 0) return false;
    }
    return i > start;
  }
  bool parse_literal(const char* lit) {
    skip_ws();
    const std::size_t n = std::string(lit).size();
    if (s.compare(i, n, lit) != 0) return false;
    i += n;
    return true;
  }
  bool parse_value() {
    skip_ws();
    if (i >= s.size()) return false;
    switch (s[i]) {
      case '{': return parse_object(nullptr);
      case '[': return parse_array();
      case '"': return parse_string(nullptr);
      case 't': return parse_literal("true");
      case 'f': return parse_literal("false");
      case 'n': return parse_literal("null");
      default: return parse_number();
    }
  }
  bool parse_array() {
    if (!eat('[')) return false;
    if (eat(']')) return true;
    while (true) {
      if (!parse_value()) return false;
      if (eat(']')) return true;
      if (!eat(',')) return false;
    }
  }
  /// Parses an object; records top-level string fields into `fields` when the
  /// caller asks for them (nested objects/arrays are validated, not recorded).
  bool parse_object(std::map<std::string, std::string>* fields) {
    if (!eat('{')) return false;
    if (eat('}')) return true;
    while (true) {
      std::string key;
      if (!parse_string(&key)) return false;
      if (!eat(':')) return false;
      skip_ws();
      if (fields != nullptr && i < s.size() && s[i] == '"') {
        std::string value;
        if (!parse_string(&value)) return false;
        (*fields)[key] = value;
      } else {
        if (!parse_value()) return false;
        if (fields != nullptr) (*fields)[key] = "";
      }
      if (eat('}')) return true;
      if (!eat(',')) return false;
    }
  }
};

/// Validates one JSONL line; returns true and fills `fields` with the
/// top-level keys (string values kept, others mapped to "") on success.
bool parse_line(const std::string& line, std::map<std::string, std::string>* fields) {
  JsonCursor cursor{line};
  if (!cursor.parse_object(fields)) return false;
  cursor.skip_ws();
  return cursor.i == line.size();
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc\r"), "a\\nb\\tc\\r");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(JsonEscape, EscapedStringsRoundTripThroughTheValidator) {
  const std::string nasty = "he said \"x\\y\"\n\tdone\x02";
  const std::string line = "{\"v\":\"" + json_escape(nasty) + "\"}";
  std::map<std::string, std::string> fields;
  EXPECT_TRUE(parse_line(line, &fields));
  EXPECT_EQ(fields.count("v"), 1u);
}

struct JsonlFixture : ::testing::Test {
  JsonlFixture() : problem(4) {
    Rng rng(1);
    initial = core::sample_initial_set(problem, 20, rng);
    std::vector<linalg::Vec> rows;
    for (const auto& r : initial) rows.push_back(r.metrics);
    fom = std::make_unique<ckt::FomEvaluator>(ckt::FomEvaluator::fit_reference(problem, rows));
  }

  std::string temp_path(const char* name) const { return ::testing::TempDir() + name; }

  ckt::ConstrainedQuadratic problem;
  std::vector<core::SimRecord> initial;
  std::unique_ptr<ckt::FomEvaluator> fom;
};

TEST_F(JsonlFixture, CleanRunWritesTheDocumentedSchema) {
  const std::string path = temp_path("maopt_jsonl_clean.jsonl");
  std::remove(path.c_str());
  {
    JsonlObserver sink(path);
    core::RandomSearch opt;
    core::RunOptions options;
    options.seed = 7;
    options.simulation_budget = 6;
    options.observer = &sink;
    opt.run(problem, initial, *fom, options);
  }

  const auto lines = read_lines(path);
  // run_started + 6 x (simulation_completed + iteration_completed) + run_finished.
  ASSERT_EQ(lines.size(), 1u + 6u * 2u + 1u);
  std::map<std::string, int> event_counts;
  for (const auto& line : lines) {
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(parse_line(line, &fields)) << line;
    ASSERT_EQ(fields.count("event"), 1u) << line;
    EXPECT_EQ(fields.count("t"), 1u) << line;  // every event is timestamped
    ++event_counts[fields["event"]];
  }
  EXPECT_EQ(event_counts["run_started"], 1);
  EXPECT_EQ(event_counts["simulation_completed"], 6);
  EXPECT_EQ(event_counts["iteration_completed"], 6);
  EXPECT_EQ(event_counts["run_finished"], 1);

  // Spot-check the documented per-event keys.
  std::map<std::string, std::string> started, sim, iter, finished;
  ASSERT_TRUE(parse_line(lines.front(), &started));
  ASSERT_TRUE(parse_line(lines[1], &sim));
  ASSERT_TRUE(parse_line(lines[2], &iter));
  ASSERT_TRUE(parse_line(lines.back(), &finished));
  for (const char* key : {"algorithm", "problem", "seed", "budget", "num_initial", "dim"})
    EXPECT_EQ(started.count(key), 1u) << key;
  for (const char* key :
       {"index", "iteration", "lane", "ok", "feasible", "fom", "seconds", "retries", "failure_kind"})
    EXPECT_EQ(sim.count(key), 1u) << key;
  for (const char* key :
       {"iteration", "simulations", "best_fom", "feasible_found", "near_sampling", "wall_seconds",
        "critic_loss", "spans"})
    EXPECT_EQ(iter.count(key), 1u) << key;
  // Random search trains no critic.
  EXPECT_NE(lines[2].find("\"critic_loss\":null"), std::string::npos) << lines[2];
  for (const char* key :
       {"algorithm", "simulations", "best_fom", "feasible", "aborted", "wall_seconds", "counters"})
    EXPECT_EQ(finished.count(key), 1u) << key;
  EXPECT_EQ(started["algorithm"], "Random");
  std::remove(path.c_str());
}

TEST_F(JsonlFixture, FaultInjectedRunStaysParseableLineByLine) {
  // A simulator that throws / hangs / returns NaN or garbage at a combined
  // 40% rate, behind the resilient evaluator with bounded retries. The event
  // stream must remain valid JSONL throughout and record the turbulence.
  ckt::FaultInjectingProblem faulty(problem, ckt::FaultInjectionConfig::mixed(0.4, 99, 0.0));
  ckt::ResilientConfig rc;
  rc.max_retries = 2;
  ckt::ResilientEvaluator resilient(faulty, rc);

  Rng rng(2);
  auto init = core::sample_initial_set(resilient, 15, rng);
  std::vector<linalg::Vec> rows;
  for (const auto& r : init) rows.push_back(r.metrics);
  const auto f = ckt::FomEvaluator::fit_reference(resilient, rows);

  core::MaOptConfig config = core::MaOptConfig::ma_opt();
  config.critic.hidden = {16, 16};
  config.critic.steps_per_round = 5;
  config.actor.hidden = {12, 12};
  config.actor.steps_per_round = 5;
  config.near_sampling.num_samples = 50;

  const std::string path = temp_path("maopt_jsonl_faulty.jsonl");
  std::remove(path.c_str());
  constexpr std::size_t kBudget = 16;
  {
    JsonlObserver sink(path);
    core::MaOptimizer opt(config);
    core::RunOptions options;
    options.seed = 4;
    options.simulation_budget = kBudget;
    options.observer = &sink;
    opt.run(resilient, init, f, options);
  }

  const auto lines = read_lines(path);
  ASSERT_GE(lines.size(), kBudget + 2);
  std::map<std::string, int> event_counts;
  std::uint64_t retried_or_failed = 0;
  for (const auto& line : lines) {
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(parse_line(line, &fields)) << line;
    ASSERT_EQ(fields.count("event"), 1u) << line;
    if (fields["event"] == "simulation_completed" &&
        (line.find("\"retries\":0") == std::string::npos || !fields["failure_kind"].empty()))
      ++retried_or_failed;
    ++event_counts[fields["event"]];
  }
  EXPECT_EQ(event_counts["run_started"], 1);
  EXPECT_EQ(event_counts["simulation_completed"], static_cast<int>(kBudget));
  EXPECT_EQ(event_counts["run_finished"], 1);
  EXPECT_GT(event_counts["iteration_completed"], 0);
  // With a 40% injection rate over 16+ evaluations the resilient layer is all
  // but guaranteed to have retried or exhausted at least one call — and the
  // event stream must say so.
  EXPECT_GT(retried_or_failed + 0u, 0u);
  EXPECT_GT(faulty.injected(), 0u);
  std::remove(path.c_str());
}

TEST_F(JsonlFixture, SweepBracketsWriteTheDocumentedSchema) {
  ckt::testing::VariedAnalytic varied;
  ckt::testing::SeedFailInjector faulty(varied, {1});
  ckt::RobustConfig rconfig;  // 5 corners, penalize-failed
  ckt::RobustProblem robust(faulty, rconfig);

  const std::string path = temp_path("maopt_jsonl_sweep.jsonl");
  std::remove(path.c_str());
  {
    JsonlObserver sink(path);
    robust.set_observer(&sink);
    robust.evaluate({0.3, 0.3});
    robust.evaluate({0.6, 0.6});
  }

  const auto lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u * (1 + 5 + 1));
  int started = 0, variants = 0, completed = 0;
  std::string open_id;  // sweep_id of the open bracket, "" when closed
  for (const auto& line : lines) {
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(parse_line(line, &fields)) << line;
    const std::string& kind = fields["event"];
    if (kind == "sweep_started") {
      ++started;
      EXPECT_TRUE(open_id.empty()) << "bracket interleaving: " << line;
      for (const char* key : {"sweep_id", "kind", "aggregation", "variants", "t"})
        EXPECT_EQ(fields.count(key), 1u) << key << " missing: " << line;
      EXPECT_EQ(fields["kind"], "corners");
      EXPECT_EQ(fields["aggregation"], "worst-case");
      open_id = "open";
    } else if (kind == "sweep_variant") {
      ++variants;
      EXPECT_FALSE(open_id.empty()) << "variant outside bracket: " << line;
      for (const char* key : {"sweep_id", "variant", "label", "ok", "fom0", "seconds", "t"})
        EXPECT_EQ(fields.count(key), 1u) << key << " missing: " << line;
      EXPECT_EQ(fields.count("skipped"), 0u) << line;
    } else if (kind == "sweep_completed") {
      ++completed;
      EXPECT_FALSE(open_id.empty()) << "completed outside bracket: " << line;
      for (const char* key : {"sweep_id", "ok", "failed", "degraded", "policy", "seconds", "t"})
        EXPECT_EQ(fields.count(key), 1u) << key << " missing: " << line;
      EXPECT_EQ(fields.count("skipped"), 0u) << line;
      EXPECT_EQ(fields["policy"], "penalize-failed");
      open_id.clear();
    } else {
      ADD_FAILURE() << "unexpected event kind in sweep-only stream: " << line;
    }
  }
  EXPECT_EQ(started, 2);
  EXPECT_EQ(variants, 10);
  EXPECT_EQ(completed, 2);
  std::remove(path.c_str());
}

TEST(MulticastObserver, FansOutSweepEvents) {
  struct CountingSink final : RunObserver {
    int started = 0, variants = 0, completed = 0;
    void on_sweep_started(const SweepStarted&) override { ++started; }
    void on_sweep_variant_evaluated(const SweepVariantEvaluated&) override { ++variants; }
    void on_sweep_completed(const SweepCompleted&) override { ++completed; }
  };
  CountingSink a, b;
  MulticastObserver multicast;
  multicast.add(&a);
  multicast.add(&b);
  multicast.on_sweep_started(SweepStarted{});
  multicast.on_sweep_variant_evaluated(SweepVariantEvaluated{});
  multicast.on_sweep_completed(SweepCompleted{});
  for (const CountingSink* sink : {&a, &b}) {
    EXPECT_EQ(sink->started, 1);
    EXPECT_EQ(sink->variants, 1);
    EXPECT_EQ(sink->completed, 1);
  }
}

}  // namespace
}  // namespace maopt::obs
