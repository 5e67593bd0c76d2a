// Deck elaboration: the one SPICE frontend, behind DeckProblem, the daemon
// and minispice.
//
// Elaboration handles everything a real deck throws at it and produces a
// *symbolic* card list instead of a wired netlist (deck_problem.hpp's
// build_nominal_netlist wires it at the nominal .param values):
//
//   * .include / .lib       — resolved relative to the including file, with
//                             canonical-path cycle detection and a depth cap,
//   * .param NAME=expr      — arithmetic expressions over earlier parameters,
//   * .subckt / X elements  — flattened (internal nodes become
//                             "x<inst>.<node>", devices "X<INST>.<NAME>",
//                             instance k=v overrides substitute into every
//                             body expression),
//   * .op/.dc/.ac/.tran/.noise — analysis cards,
//   * .measure              — named post-processing measurements mapped onto
//                             spice/measure.hpp,
//   * continuation lines ('+'), '*' and ';' comments, .end termination,
//   * unknown dot-cards     — collected as warnings, never silently dropped.
//
// Element values stay Expr trees until a DeckProblem instantiates the deck
// at a concrete parameter environment — that is what makes a ".param" deck
// optimizable without text substitution hacks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "deck/expression.hpp"
#include "spice/parser.hpp"

namespace maopt::deck {

enum class ElementKind { Resistor, Capacitor, Inductor, VSource, ISource, Vcvs, Mosfet };

/// Independent-source description with symbolic arguments.
struct SourceSpec {
  enum class Wave { Dc, Pulse, Pwl };
  Wave wave = Wave::Dc;
  Expr dc;                 ///< DC value (Wave::Dc)
  std::vector<Expr> args;  ///< PULSE: 7 args; PWL: t/v pairs flattened
  Expr ac;                 ///< AC magnitude; empty when the card has no AC term
};

/// One element card after flattening, with symbolic values.
struct ElementCard {
  ElementKind kind;
  std::string name;                ///< upper-cased, subckt-prefixed ("X1.M2")
  std::vector<std::string> nodes;  ///< lower-cased node names, ground = "0"
  Expr value;                      ///< R/C/L value, VCVS gain
  std::string model;               ///< MOSFET model name (upper-cased)
  Expr w, l, m;                    ///< MOSFET geometry (m defaults to 1)
  SourceSpec source;               ///< V/I sources
  std::string location;            ///< "path:line" for diagnostics
};

struct ModelCard {
  std::string name;                  ///< upper-cased
  std::string type;                  ///< "NMOS" or "PMOS"
  std::map<std::string, Expr> params;
  std::string location;
};

enum class AnalysisKind { Op, Dc, Ac, Tran, Noise };

const char* to_string(AnalysisKind kind);

struct AnalysisCard {
  AnalysisKind kind = AnalysisKind::Op;
  // .ac / .noise
  int points_per_decade = 10;
  Expr f_start, f_stop;
  // .tran
  Expr dt, t_stop;
  // .noise probe: V(pos[, neg])
  std::string noise_pos, noise_neg;
  // .dc (parsed for completeness; no measure reads it yet)
  std::string dc_source;
  Expr dc_start, dc_stop, dc_step;
  std::string location;
};

/// What a .measure card computes. Kinds map 1:1 onto spice/measure.hpp
/// (plus OP probes); see MeasureCard for the per-kind arguments.
enum class MeasureKind {
  Voltage,      ///< op:    V(node)
  SupplyPower,  ///< op:    |I·V| of a named V-source [W]
  DcGain,       ///< ac:    dc_gain_db(node) [dB]
  Ugf,          ///< ac:    unity_gain_frequency(node) [Hz], optional
  PhaseMargin,  ///< ac:    phase_margin_deg(node) [deg], optional
  Bandwidth,    ///< ac:    bandwidth_3db(node) [Hz], optional
  GainMargin,   ///< ac:    gain_margin_db(node) [dB], optional
  MagnitudeAt,  ///< ac:    magnitude_at(node, f=) [abs]
  Settling,     ///< tran:  settling_time(node, from=, final=, tol=) [s], optional
  SlewRate,     ///< tran:  slew_rate(node) [V/s]
  Overshoot,    ///< tran:  overshoot_fraction(node, from=, initial=, final=)
  RiseTime,     ///< tran:  rise_time(node, from=, initial=, final=) [s], optional
  TotalRms,     ///< noise: total integrated output noise [Vrms]
};

struct MeasureCard {
  std::string name;      ///< upper-cased result name
  AnalysisKind analysis; ///< which analysis result it reads
  MeasureKind kind;
  std::string node;      ///< probe node (lower-cased; "" for SupplyPower/TotalRms)
  std::string element;   ///< SupplyPower: the V-source element name (upper)
  std::map<std::string, Expr> kv;  ///< f=, from=, tol=, final=, initial=, default=
  std::string location;

  /// Optional-measure fallback: when the underlying measurement is undefined
  /// (no unity crossing, never settles, ...) and the card carries default=,
  /// that value is reported instead of failing the evaluation.
  bool has_default() const { return kv.count("DEFAULT") != 0; }
};

struct ElaboratedDeck {
  std::string top_path;  ///< as passed to elaborate_deck_file ("" for text)
  std::vector<ElementCard> elements;
  std::vector<ModelCard> models;
  std::vector<std::pair<std::string, Expr>> params;  ///< declaration order
  std::vector<AnalysisCard> analyses;
  std::vector<MeasureCard> measures;
  std::vector<std::string> warnings;

  /// First analysis card of the given kind; nullptr when absent.
  const AnalysisCard* analysis(AnalysisKind kind) const;

  /// Evaluates every .param in declaration order (later params may reference
  /// earlier ones); throws on unresolvable references.
  ParamEnv nominal_env() const;

  /// Content hash over the semantic payload — card kinds, names, nodes and
  /// canonical expressions — but NOT source locations, include structure,
  /// whitespace or comments. Re-elaborating a reformatted deck yields the
  /// same hash; changing any value, node or card changes it. This is what
  /// DeckProblem::content_fingerprint folds into problem_fingerprint.
  std::uint64_t content_hash() const;
};

/// Elaborates the deck rooted at `path`. Throws spice::ParseError (with file
/// and include-chain context) on malformed input.
ElaboratedDeck elaborate_deck_file(const std::string& path);

/// Elaborates in-memory text; .include paths resolve relative to the current
/// working directory unless `virtual_path` carries a directory component.
ElaboratedDeck elaborate_deck_text(const std::string& text,
                                   const std::string& virtual_path = "<deck>");

}  // namespace maopt::deck
