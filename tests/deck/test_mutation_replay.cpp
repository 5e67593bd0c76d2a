// Seeded mutation replay over the deck frontend. Every shipped deck/spec
// pair under decks/ is mutated deterministically — byte erase, truncation,
// bit flip and inserted fragments — and each mutant goes through
// elaborate_deck_text, parse_spec_text and the DeckProblem constructor. The
// only allowed outcomes are success, spice::ParseError (syntax, with the
// line) and std::invalid_argument (binding); anything else, including a
// sanitizer report in the ASan/UBSan build, is a frontend bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "deck/deck_problem.hpp"
#include "deck/elaborator.hpp"
#include "deck/spec.hpp"
#include "spice/parser.hpp"

namespace maopt::deck {
namespace {

namespace fs = std::filesystem;

constexpr int kMutantsPerDeck = 3000;

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

/// Applies one to three random edits to `text`.
std::string mutate(std::string text, Rng& rng) {
  const std::size_t edits = 1 + pick(rng, 3);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t pos = pick(rng, text.size() + 1);
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

}  // namespace
}  // namespace maopt::deck
