// Seeded mutation replay over the deck frontend. Every shipped deck/spec
// pair under decks/ is mutated deterministically — byte erase, truncation,
// bit flip, inserted fragments and inserted .subckt fan-out — and each
// mutant goes through elaborate_deck_text, parse_spec_text and the
// DeckProblem constructor. The only allowed outcomes are success,
// spice::ParseError (syntax, with the line) and std::invalid_argument
// (binding); anything else, including a sanitizer report in the ASan/UBSan
// build, is a frontend bug. Fan-out also checks the deck size caps: a few
// hundred bytes of nested instances must fail fast, not exhaust memory.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "deck/deck_problem.hpp"
#include "deck/elaborator.hpp"
#include "deck/spec.hpp"
#include "spice/netlist.hpp"
#include "spice/parser.hpp"

namespace maopt::deck {
namespace {

namespace fs = std::filesystem;

constexpr int kMutantsPerDeck = 3000;
/// One edit in kFanOutOdds inserts .subckt fan-out. Each such mutant can
/// flatten up to the elaborator's 10,000-element cap, so they stay rare.
constexpr std::size_t kFanOutOdds = 64;

/// Text spliced in at a random offset: unclosed structure, non-finite
/// values, continuations and early termination.
const char* const kFragments[] = {
    "\n.subckt open a b\nR1 a b 1k\n",
    "{1/0}",
    "\n.param B=1e308k\n",
    "\n+ W=1u\n",
    "\n+",
    "\n.end\n",
    "{",
    "'",
    "nan",
    "\nXBAD a b nosuch\n",
    "\n.measure ac bad ugf v(nowhere)\n",
    "\nparam B lower=1 upper=inf\n",
};

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

/// Nested .subckt fan-out: F0 is one resistor and each F<k> holds `width`
/// instances of F<k-1>, wired in parallel between its pins or, with
/// `series`, as a chain through width - 1 internal nodes. Ends with one
/// instance of F<levels> from node "in" to ground, which flattens to
/// width^levels resistors.
std::string fan_out_subckts(int levels, int width, bool series) {
  std::string text = "\n.subckt F0 a b\nR1 a b 1k\n.ends\n";
  for (int k = 1; k <= levels; ++k) {
    text += ".subckt F" + std::to_string(k) + " a b\n";
    for (int i = 0; i < width; ++i) {
      const std::string from = !series || i == 0 ? "a" : "n" + std::to_string(i);
      const std::string to = !series || i == width - 1 ? "b" : "n" + std::to_string(i + 1);
      text += "X" + std::to_string(i) + " " + from + " " + to + " F" + std::to_string(k - 1) + "\n";
    }
    text += ".ends\n";
  }
  return text + "XFAN in 0 F" + std::to_string(levels) + "\n";
}

/// Applies one to three random edits to `text`.
std::string mutate(std::string text, Rng& rng) {
  const std::size_t edits = 1 + pick(rng, 3);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t pos = pick(rng, text.size() + 1);
    if (pick(rng, kFanOutOdds) == 0) {
      text.insert(pos, fan_out_subckts(1 + static_cast<int>(pick(rng, 7)),
                                       2 + static_cast<int>(pick(rng, 9)), pick(rng, 2) == 0));
      continue;
    }
    switch (pick(rng, 4)) {
      case 0: text.erase(pos, 1 + pick(rng, 8)); break;
      case 1: text.resize(pos); break;
      case 2:
        if (pos < text.size()) text[pos] = static_cast<char>(text[pos] ^ (1 << pick(rng, 8)));
        break;
      default: text.insert(pos, kFragments[pick(rng, std::size(kFragments))]); break;
    }
  }
  return text;
}

/// "" when compiling the pair succeeds or fails cleanly; otherwise what
/// escaped.
std::string unexpected_outcome(const std::string& deck_text, const std::string& deck_path,
                               const std::string& spec_text, const std::string& spec_path) {
  try {
    DeckProblem(elaborate_deck_text(deck_text, deck_path), parse_spec_text(spec_text, spec_path));
  } catch (const spice::ParseError&) {
  } catch (const std::invalid_argument&) {
  } catch (const std::exception& e) {
    return std::string("std::exception: ") + e.what();
  } catch (...) {
    return "non-standard exception";
  }
  return "";
}

TEST(DeckMutationReplay, ShippedDecksFailOnlyCleanly) {
  std::vector<fs::path> decks;
  for (const auto& entry : fs::directory_iterator(MAOPT_DECKS_DIR))
    if (entry.path().extension() == ".cir") decks.push_back(entry.path());
  std::sort(decks.begin(), decks.end());
  ASSERT_FALSE(decks.empty());

  for (std::size_t d = 0; d < decks.size(); ++d) {
    // The real paths keep .include resolution relative to decks/.
    const std::string deck_path = decks[d].string();
    const std::string spec_path = fs::path(decks[d]).replace_extension(".spec").string();
    const std::string deck_text = read_file(deck_path);
    const std::string spec_text = read_file(spec_path);
    ASSERT_EQ(unexpected_outcome(deck_text, deck_path, spec_text, spec_path), "") << deck_path;

    int escaped = 0;
    for (int i = 0; i < kMutantsPerDeck; ++i) {
      Rng rng(derive_seed(0xF022 + d, static_cast<std::uint64_t>(i)));
      // Even mutants corrupt the deck, odd ones the spec.
      const bool deck_side = i % 2 == 0;
      const std::string deck_mutant = deck_side ? mutate(deck_text, rng) : deck_text;
      const std::string spec_mutant = deck_side ? spec_text : mutate(spec_text, rng);
      const std::string what = unexpected_outcome(deck_mutant, deck_path, spec_mutant, spec_path);
      if (!what.empty() && ++escaped <= 3)
        ADD_FAILURE() << decks[d].filename() << " mutant " << i << ": " << what << "\n--- "
                      << (deck_side ? "deck" : "spec") << " ---\n"
                      << (deck_side ? deck_mutant : spec_mutant);
    }
    EXPECT_EQ(escaped, 0) << decks[d].filename();
  }
}

/// 1-based number of the first line of `text` equal to `line`.
int line_number(const std::string& text, const std::string& line) {
  std::istringstream in(text);
  std::string current;
  for (int n = 1; std::getline(in, current); ++n)
    if (current == line) return n;
  return 0;
}

TEST(DeckSize, FanOutFailsAtTheInstanceThatCrossesTheElementCap) {
  // 7 levels of 10: 10^7 resistors from under 1 KB of text.
  const std::string deck = "V1 in 0 1\n" + fan_out_subckts(7, 10, false) + ".op\n.end\n";
  ASSERT_LT(deck.size(), 1000u);
  try {
    (void)elaborate_deck_text(deck);
    FAIL() << "a 10^7-element deck elaborated";
  } catch (const spice::ParseError& e) {
    // V1 is element 1, so the 10,001st is the leaf of the 10,000th F0
    // instance: the last X card of an F1 body.
    EXPECT_EQ(e.line(), line_number(deck, "X9 a b F0")) << e.what();
    EXPECT_NE(std::string(e.what()).find("10000 elements"), std::string::npos) << e.what();
  }
}

TEST(DeckSize, DenseCircuitsAreCappedAtAThousandUnknowns) {
  // Three series levels of 10 give 999 internal nodes; with node "in" that
  // is 1,000 unknowns, which builds.
  spice::Netlist at_cap;
  build_nominal_netlist(
      elaborate_deck_text("R0 in 0 1k\n" + fan_out_subckts(3, 10, true) + ".op\n"), at_cap);
  EXPECT_EQ(at_cap.system_size(), 1000u);

  // A voltage source adds a branch current: 1,001 unknowns.
  const std::string over = "V1 in 0 1\n" + fan_out_subckts(3, 10, true) + ".op\n";
  spice::Netlist net;
  EXPECT_THROW(build_nominal_netlist(elaborate_deck_text(over), net), std::invalid_argument);

  // The daemon compiles submitted decks through DeckProblem, which builds the
  // same netlist.
  const std::string deck = ".param RVAL=1k\nR1 in out {RVAL}\nR2 out 0 1k\n" + over +
                           ".measure op vout v v(out)\n";
  const std::string spec = "name dense\nparam RVAL lower=100 upper=10k\nminimize {VOUT}\n";
  EXPECT_THROW(DeckProblem::from_text(deck, spec), std::invalid_argument);
}

}  // namespace
}  // namespace maopt::deck
