// DeckProblem: a SizingProblem compiled from a SPICE deck + spec file, with
// zero C++ per circuit.
//
// The compile step binds the two halves together and front-loads every
// validation it can:
//   * designable .params (spec `param` lines) become the optimization vector
//     x, in spec order, in the deck's natural (SI) units;
//   * each spec objective/constraint expression must resolve against the
//     deck's .measure names, `let` definitions and .params;
//   * every measure needs its analysis card, a resolvable probe node and —
//     for supplypower — an existing V-source element;
//   * a designable parameter may only drive retunable element fields
//     (R/C values, MOSFET W/L/M, source waveforms); driving an inductor,
//     VCVS gain or .model parameter is a compile error, because those are
//     fixed at netlist-build time and silently stale values would corrupt
//     every evaluation.
//
// Evaluation follows the handwritten testbenches: a DeckSession builds the
// netlist once (with per-device mismatch draws when variation is pinned),
// re-targets device parameters per design, runs exactly the analyses the
// measures need, and maps measure results through the spec expressions into
// the metric vector. content_fingerprint() is derived from the elaborated
// deck + spec, so ResultCache, warm-start journals and per-tenant cache
// namespaces distinguish decks by semantic content, not by object identity.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "circuits/sizing_problem.hpp"
#include "deck/elaborator.hpp"
#include "deck/spec.hpp"

namespace maopt::spice {
class Netlist;
}

namespace maopt::deck {

using ckt::Vec;

/// Builds `deck`'s circuit into `out` (which must be a fresh Netlist) at the
/// deck's nominal parameter values: models resolved, element labels applied,
/// prepare() called. The substrate for standalone deck tools
/// (examples/minispice) that want the elaborated language without the
/// optimization contract. Throws std::invalid_argument on binding errors
/// (unknown model, bad model parameter) and on a circuit with more than
/// 1,000 MNA unknowns (node voltages plus branch currents).
void build_nominal_netlist(const ElaboratedDeck& deck, spice::Netlist& out);

class DeckProblem final : public ckt::CircuitProblem {
 public:
  /// Compiles deck + spec files. `spec_path` defaults to the deck path with
  /// a ".spec" extension. Throws spice::ParseError on syntax errors and
  /// std::invalid_argument on semantic (binding) errors.
  static DeckProblem from_files(const std::string& deck_path, const std::string& spec_path = "");
  static DeckProblem from_text(const std::string& deck_text, const std::string& spec_text);

  DeckProblem(ElaboratedDeck deck, DeckSpec spec);

  // SizingProblem contract ---------------------------------------------------
  const ckt::ProblemSpec& spec() const override { return spec_; }
  std::size_t dim() const override { return lower_.size(); }
  const Vec& lower_bounds() const override { return lower_; }
  const Vec& upper_bounds() const override { return upper_; }
  const std::vector<bool>& integer_mask() const override { return integer_; }
  std::vector<std::string> parameter_names() const override;

  /// Mismatch needs devices to perturb: a deck without MOSFETs is nominal-only.
  bool supports_process_variation() const override { return has_mosfets_; }

  std::uint64_t content_fingerprint() const override { return fingerprint_; }

  // Deck accessors -----------------------------------------------------------
  const ElaboratedDeck& deck() const { return deck_; }
  const DeckSpec& deck_spec() const { return deck_spec_; }

 protected:
  std::unique_ptr<ckt::EvalSession> open_session(const ckt::ProcessVariation& pv) const override;

 private:
  friend class DeckSession;

  void validate() const;

  ElaboratedDeck deck_;
  DeckSpec deck_spec_;
  ckt::ProblemSpec spec_;
  Vec lower_, upper_;
  std::vector<bool> integer_;
  bool has_mosfets_ = false;
  std::uint64_t fingerprint_ = 0;
};

}  // namespace maopt::deck
