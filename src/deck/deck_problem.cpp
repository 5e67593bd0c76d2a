#include "deck/deck_problem.hpp"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <set>
#include <stdexcept>

#include "circuits/process_variation.hpp"
#include "common/hash.hpp"
#include "spice/ac_analysis.hpp"
#include "spice/dc_analysis.hpp"
#include "spice/devices.hpp"
#include "spice/measure.hpp"
#include "spice/mosfet.hpp"
#include "spice/noise_analysis.hpp"
#include "spice/tran_analysis.hpp"

namespace maopt::deck {

namespace {

using namespace maopt::spice;
using ckt::EvalResult;
using ckt::ProcessVariation;

/// Evaluates a model card onto the canonical 180 nm base model.
MosModel build_model(const ModelCard& card, const ParamEnv& env) {
  MosModel model = card.type == "NMOS" ? MosModel::nmos_180() : MosModel::pmos_180();
  for (const auto& [key, expr] : card.params) {
    const double v = expr.eval(env);
    if (key == "VTO")
      model.vth0 = v;
    else if (key == "KP")
      model.kp = v;
    else if (key == "LAMBDAL")
      model.lambda_l = v;
    else if (key == "COX")
      model.cox = v;
    else if (key == "COV")
      model.cov = v;
    else if (key == "CJW")
      model.cj_w = v;
    else if (key == "KF")
      model.kf = v;
    else if (key == "GAMMA")
      model.gamma = v;
    else if (key == "PHI")
      model.phi = v;
    else if (key == "NSS") {
      model.subthreshold = true;
      model.n_ss = v;
    } else {
      throw std::invalid_argument(card.location + ": unknown model parameter '" + key + "'");
    }
  }
  return model;
}

Waveform build_waveform(const SourceSpec& s, const ParamEnv& env) {
  switch (s.wave) {
    case SourceSpec::Wave::Dc: return Waveform::dc(s.dc.eval(env));
    case SourceSpec::Wave::Pulse:
      return Waveform::pulse(s.args[0].eval(env), s.args[1].eval(env), s.args[2].eval(env),
                             s.args[3].eval(env), s.args[4].eval(env), s.args[5].eval(env),
                             s.args[6].eval(env));
    case SourceSpec::Wave::Pwl: {
      std::vector<std::pair<double, double>> points;
      for (std::size_t i = 0; i + 1 < s.args.size(); i += 2)
        points.emplace_back(s.args[i].eval(env), s.args[i + 1].eval(env));
      return Waveform::pwl(std::move(points));
    }
  }
  return Waveform::dc(0.0);
}

double kv_or(const MeasureCard& card, const char* key, const ParamEnv& env, double fallback) {
  const auto it = card.kv.find(key);
  return it == card.kv.end() ? fallback : it->second.eval(env);
}

/// Pointers to the retunable devices, paired with their card index so
/// re-targeting can re-evaluate the card's expressions per design.
struct DeviceHandles {
  std::vector<std::pair<Resistor*, std::size_t>> resistors;
  std::vector<std::pair<Capacitor*, std::size_t>> capacitors;
  std::vector<std::pair<Mosfet*, std::size_t>> mosfets;
  std::vector<std::pair<VSource*, std::size_t>> vsources;
  std::vector<std::pair<ISource*, std::size_t>> isources;
  std::map<std::string, VSource*> vsource_by_name;
};

/// MNA unknowns (node voltages plus branch currents) one deck may build. The
/// simulator's MNA matrices are dense, so each Newton step of an .op costs
/// O(n^3): 1,000 unknowns is a fraction of a second per step, while a
/// 600-byte deck of nested subcircuits reaches 10,000 unknowns, whose .op
/// does not finish in a minute. The shipped decks have fewer than 20.
constexpr std::size_t kMaxUnknowns = 1000;

/// Instantiates every element card into `net` (which must be fresh) and
/// prepares it. Mismatch draws are one per MOSFET in element order when
/// `pv` is enabled. `handles` may be null (standalone tools). Throws
/// std::invalid_argument when the circuit has more than kMaxUnknowns.
void build_devices(const ElaboratedDeck& deck, const ParamEnv& env, const ProcessVariation& pv,
                   Netlist& net, DeviceHandles* handles) {
  std::map<std::string, MosModel> models;
  for (const auto& card : deck.models) models[card.name] = build_model(card, env);

  Rng var_rng(derive_seed(pv.seed, 0x5A5A));
  auto vary = [&](const MosModel& m) { return pv.enabled() ? ckt::vary_model(m, var_rng, pv) : m; };

  auto node = [&](const ElementCard& card, std::size_t i) { return net.node(card.nodes[i]); };
  for (std::size_t idx = 0; idx < deck.elements.size(); ++idx) {
    const ElementCard& card = deck.elements[idx];
    Device* dev = nullptr;
    switch (card.kind) {
      case ElementKind::Resistor: {
        auto* r = net.add<Resistor>(node(card, 0), node(card, 1), card.value.eval(env));
        if (handles != nullptr) handles->resistors.emplace_back(r, idx);
        dev = r;
        break;
      }
      case ElementKind::Capacitor: {
        auto* c = net.add<Capacitor>(node(card, 0), node(card, 1), card.value.eval(env));
        if (handles != nullptr) handles->capacitors.emplace_back(c, idx);
        dev = c;
        break;
      }
      case ElementKind::Inductor:
        dev = net.add<Inductor>(node(card, 0), node(card, 1), card.value.eval(env));
        break;
      case ElementKind::Vcvs:
        dev = net.add<Vcvs>(node(card, 0), node(card, 1), node(card, 2), node(card, 3),
                            card.value.eval(env));
        break;
      case ElementKind::VSource: {
        auto* v = net.add<VSource>(node(card, 0), node(card, 1), build_waveform(card.source, env),
                                   card.source.ac.empty() ? 0.0 : card.source.ac.eval(env));
        if (handles != nullptr) {
          handles->vsources.emplace_back(v, idx);
          handles->vsource_by_name[card.name] = v;
        }
        dev = v;
        break;
      }
      case ElementKind::ISource: {
        auto* i = net.add<ISource>(node(card, 0), node(card, 1), build_waveform(card.source, env),
                                   card.source.ac.empty() ? 0.0 : card.source.ac.eval(env));
        if (handles != nullptr) handles->isources.emplace_back(i, idx);
        dev = i;
        break;
      }
      case ElementKind::Mosfet: {
        const auto model_it = models.find(card.model);
        if (model_it == models.end())
          throw std::invalid_argument(card.location + ": unknown model '" + card.model +
                                      "' (missing .model card?)");
        auto* m = net.add<Mosfet>(node(card, 0), node(card, 1), node(card, 2), node(card, 3),
                                  vary(model_it->second), card.w.eval(env), card.l.eval(env),
                                  card.m.eval(env));
        if (handles != nullptr) handles->mosfets.emplace_back(m, idx);
        dev = m;
        break;
      }
    }
    net.set_label(dev, card.name);
  }
  net.prepare();
  if (net.system_size() > kMaxUnknowns)
    throw std::invalid_argument(deck.top_path + ": circuit has " +
                                std::to_string(net.system_size()) +
                                " MNA unknowns, more than the " + std::to_string(kMaxUnknowns) +
                                " a dense-matrix simulation can afford");
}

}  // namespace

void build_nominal_netlist(const ElaboratedDeck& deck, Netlist& out) {
  build_devices(deck, deck.nominal_env(), ProcessVariation{}, out, nullptr);
}

/// Persistent evaluator for one DeckProblem (see OtaSession for the
/// pattern): the netlist is built once from the elaborated cards — with
/// per-device mismatch draws when variation is pinned — then re-targeted per
/// design; the analyses keep their factorization workspaces across designs.
class DeckSession final : public ckt::EvalSession {
 public:
  DeckSession(const DeckProblem& problem, const ProcessVariation& pv)
      : problem_(&problem), pv_(pv) {}

  /// Builds the netlist and resolves every measure probe, throwing
  /// std::invalid_argument with card locations on binding errors. Called
  /// eagerly by DeckProblem's constructor validation, lazily by evaluate().
  void build() {
    const ElaboratedDeck& deck = problem_->deck_;
    const ParamEnv env = deck.nominal_env();

    build_devices(deck, env, pv_, net_, &handles_);

    // Resolve measure probes against the built netlist.
    for (const MeasureCard& m : deck.measures) {
      int probe = kGround;
      VSource* source = nullptr;
      if (m.kind == MeasureKind::SupplyPower) {
        const auto it = handles_.vsource_by_name.find(m.element);
        if (it == handles_.vsource_by_name.end())
          throw std::invalid_argument(m.location + ": supplypower source '" + m.element +
                                      "' is not a V element in the deck");
        source = it->second;
      } else if (m.kind != MeasureKind::TotalRms) {
        try {
          probe = net_.find_node(m.node);
        } catch (const std::exception&) {
          throw std::invalid_argument(m.location + ": measure '" + m.name +
                                      "' probes unknown node '" + m.node + "'");
        }
      }
      probes_.push_back({&m, probe, source});
    }

    // Analysis grids are design-independent (validated at compile time), so
    // they are evaluated once here. A bad range is reported at its card.
    const auto grid = [&env](const AnalysisCard& card) {
      try {
        return log_frequency_grid(card.f_start.eval(env), card.f_stop.eval(env),
                                  card.points_per_decade);
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument(card.location + ": " + e.what());
      }
    };
    if (const AnalysisCard* ac = deck.analysis(AnalysisKind::Ac)) ac_freqs_ = grid(*ac);
    if (const AnalysisCard* nz = deck.analysis(AnalysisKind::Noise)) {
      noise_freqs_ = grid(*nz);
      try {
        noise_pos_ = net_.find_node(nz->noise_pos);
        noise_neg_ = nz->noise_neg.empty() ? kGround : net_.find_node(nz->noise_neg);
      } catch (const std::exception&) {
        throw std::invalid_argument(nz->location + ": .noise probes an unknown node");
      }
    }
    if (const AnalysisCard* tr = deck.analysis(AnalysisKind::Tran)) {
      tran_options_.dt = tr->dt.eval(env);
      tran_options_.t_stop = tr->t_stop.eval(env);
      if (!(tran_options_.dt > 0.0) || !(tran_options_.t_stop > tran_options_.dt))
        throw std::invalid_argument(tr->location + ": .tran needs 0 < dt < t_stop");
    }
    for (const auto& kind : {AnalysisKind::Ac, AnalysisKind::Tran, AnalysisKind::Noise})
      needs_[static_cast<int>(kind)] = false;
    for (const MeasureCard& m : deck.measures)
      needs_[static_cast<int>(m.analysis)] = true;
    built_ = true;
  }

  EvalResult evaluate(const Vec& x) override {
    EvalResult result;
    result.metrics = problem_->failure_metrics();
    result.simulation_ok = false;
    try {
      if (!built_) build();
      ParamEnv env = design_env(x);
      apply(env);

      // Operating point — every analysis and measure hangs off it.
      const DcResult op = dc_.solve(net_);
      if (!op.converged) return result;

      AcSweep ac_sweep;
      if (needs_[static_cast<int>(AnalysisKind::Ac)])
        ac_sweep = ac_.run(net_, op.x, ac_freqs_);

      TranResult tran;
      if (needs_[static_cast<int>(AnalysisKind::Tran)]) {
        tran = TranAnalysis(tran_options_).run(net_);
        if (!tran.converged) return result;
      }

      NoiseResult noise;
      if (needs_[static_cast<int>(AnalysisKind::Noise)])
        noise = noise_.run(net_, op.x, noise_pos_, noise_neg_, noise_freqs_);

      // Measures -> env -> lets -> metric expressions.
      for (const Probe& p : probes_) {
        const MeasureCard& m = *p.card;
        std::optional<double> value;
        switch (m.kind) {
          case MeasureKind::Voltage: value = Netlist::voltage(op.x, p.node); break;
          case MeasureKind::SupplyPower:
            value = std::abs(p.source->branch_current(op.x) * p.source->waveform().dc_value());
            break;
          case MeasureKind::DcGain: value = dc_gain_db(ac_sweep, p.node); break;
          case MeasureKind::Ugf: value = unity_gain_frequency(ac_sweep, p.node); break;
          case MeasureKind::PhaseMargin: value = phase_margin_deg(ac_sweep, p.node); break;
          case MeasureKind::Bandwidth: value = bandwidth_3db(ac_sweep, p.node); break;
          case MeasureKind::GainMargin: value = gain_margin_db(ac_sweep, p.node); break;
          case MeasureKind::MagnitudeAt:
            value = magnitude_at(ac_sweep, p.node, m.kv.at("F").eval(env));
            break;
          case MeasureKind::Settling:
          case MeasureKind::SlewRate:
          case MeasureKind::Overshoot:
          case MeasureKind::RiseTime: {
            const std::vector<double> wave = tran.node_waveform(p.node);
            value = tran_measure(m, tran, wave, env);
            break;
          }
          case MeasureKind::TotalRms: value = noise.total_rms; break;
        }
        if (!value.has_value()) {
          if (!m.has_default()) return result;  // undefined and no fallback
          value = m.kv.at("DEFAULT").eval(env);
        }
        env[m.name] = *value;
      }
      for (const auto& [name, expr] : problem_->deck_spec_.lets) env[name] = expr.eval(env);

      result.metrics[0] = problem_->deck_spec_.objective.eval(env);
      const auto& constraints = problem_->deck_spec_.constraints;
      for (std::size_t k = 0; k < constraints.size(); ++k)
        result.metrics[k + 1] = constraints[k].expr.eval(env);
      for (const double v : result.metrics)
        if (!std::isfinite(v)) {
          result.metrics = problem_->failure_metrics();
          return result;
        }
      result.simulation_ok = true;
      return result;
    } catch (const std::exception&) {
      result.metrics = problem_->failure_metrics();
      return result;  // failure metrics already set
    }
  }

 private:
  struct Probe {
    const MeasureCard* card;
    int node;
    VSource* source;
  };

  /// Parameter environment for design x: deck .params evaluated in order
  /// with designables pinned to x (so derived params like W2={W1*2} track).
  ParamEnv design_env(const Vec& x) const {
    ParamEnv env;
    const auto& designables = problem_->deck_spec_.params;
    for (const auto& [name, expr] : problem_->deck_.params) {
      bool pinned = false;
      for (std::size_t i = 0; i < designables.size(); ++i)
        if (designables[i].name == name) {
          env[name] = x[i];
          pinned = true;
          break;
        }
      if (!pinned) env[name] = expr.eval(env);
    }
    return env;
  }

  /// Re-targets every retunable device at the design environment. Sources
  /// are fully reset (waveform + AC magnitude), matching the handwritten
  /// sessions' discipline of clearing state a previous evaluation may have
  /// left behind.
  void apply(const ParamEnv& env) {
    const auto& cards = problem_->deck_.elements;
    for (auto& [r, idx] : handles_.resistors) r->set_resistance(cards[idx].value.eval(env));
    for (auto& [c, idx] : handles_.capacitors) c->set_capacitance(cards[idx].value.eval(env));
    for (auto& [m, idx] : handles_.mosfets)
      m->set_geometry(cards[idx].w.eval(env), cards[idx].l.eval(env), cards[idx].m.eval(env));
    for (auto& [v, idx] : handles_.vsources) {
      v->set_waveform(build_waveform(cards[idx].source, env));
      v->set_ac_magnitude(cards[idx].source.ac.empty() ? 0.0 : cards[idx].source.ac.eval(env));
    }
    for (auto& [i, idx] : handles_.isources) {
      i->set_waveform(build_waveform(cards[idx].source, env));
      i->set_ac_magnitude(cards[idx].source.ac.empty() ? 0.0 : cards[idx].source.ac.eval(env));
    }
  }

  std::optional<double> tran_measure(const MeasureCard& m, const TranResult& tran,
                                     const std::vector<double>& wave, const ParamEnv& env) const {
    if (wave.empty()) return std::nullopt;
    const double from = kv_or(m, "FROM", env, 0.0);
    const double initial = kv_or(m, "INITIAL", env, wave.front());
    const double final_v = kv_or(m, "FINAL", env, wave.back());
    switch (m.kind) {
      case MeasureKind::Settling: {
        const double tol =
            kv_or(m, "TOL", env, 0.01 * std::max(std::abs(final_v - wave.front()), 1e-12));
        return settling_time(tran.time, wave, from, final_v, tol);
      }
      case MeasureKind::SlewRate: return slew_rate(tran.time, wave);
      case MeasureKind::Overshoot: {
        std::size_t from_index = 0;
        while (from_index + 1 < tran.time.size() && tran.time[from_index] < from) ++from_index;
        return overshoot_fraction(wave, from_index, initial, final_v);
      }
      case MeasureKind::RiseTime: return rise_time(tran.time, wave, from, initial, final_v);
      default: return std::nullopt;
    }
  }

  const DeckProblem* problem_;
  ProcessVariation pv_;
  bool built_ = false;

  Netlist net_;
  DeviceHandles handles_;
  std::vector<Probe> probes_;

  std::vector<double> ac_freqs_, noise_freqs_;
  int noise_pos_ = kGround, noise_neg_ = kGround;
  TranOptions tran_options_;
  bool needs_[5] = {false, false, false, false, false};

  DcAnalysis dc_;
  AcAnalysis ac_;
  NoiseAnalysis noise_;
};

// ---------------------------------------------------------------------------
// DeckProblem
// ---------------------------------------------------------------------------

DeckProblem DeckProblem::from_files(const std::string& deck_path, const std::string& spec_path) {
  const std::string resolved_spec =
      spec_path.empty() ? default_spec_path(deck_path) : spec_path;
  return DeckProblem(elaborate_deck_file(deck_path), parse_spec_file(resolved_spec));
}

DeckProblem DeckProblem::from_text(const std::string& deck_text, const std::string& spec_text) {
  return DeckProblem(elaborate_deck_text(deck_text), parse_spec_text(spec_text));
}

DeckProblem::DeckProblem(ElaboratedDeck deck, DeckSpec spec)
    : deck_(std::move(deck)), deck_spec_(std::move(spec)) {
  // Problem spec from the deck spec.
  spec_.name = deck_spec_.problem_name;
  if (spec_.name.empty()) {
    const std::filesystem::path p(deck_.top_path);
    spec_.name = p.has_stem() ? p.stem().string() : "deck";
  }
  spec_.target_name = deck_spec_.objective_name;
  spec_.target_unit = deck_spec_.objective_unit;
  spec_.target_weight = deck_spec_.objective_weight;
  for (const auto& c : deck_spec_.constraints)
    spec_.constraints.push_back({c.name, c.unit, c.kind, c.bound, c.weight});

  lower_ = Vec(deck_spec_.params.size());
  upper_ = Vec(deck_spec_.params.size());
  integer_.resize(deck_spec_.params.size());
  for (std::size_t i = 0; i < deck_spec_.params.size(); ++i) {
    lower_[i] = deck_spec_.params[i].lower;
    upper_[i] = deck_spec_.params[i].upper;
    integer_[i] = deck_spec_.params[i].integer;
  }

  for (const auto& e : deck_.elements)
    if (e.kind == ElementKind::Mosfet) has_mosfets_ = true;

  // Fingerprint: deck content hash folded with the spec's semantic payload.
  std::uint64_t h = deck_.content_hash();
  auto fold_str = [&h](const std::string& s) {
    h = hash_u64(s.size(), h);
    h = hash_bytes(s.data(), s.size(), h);
  };
  auto fold_d = [&h](double v) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    h = hash_u64(bits, h);
  };
  h = hash_u64(deck_spec_.params.size(), h);
  for (const auto& p : deck_spec_.params) {
    fold_str(p.name);
    fold_d(p.lower);
    fold_d(p.upper);
    h = hash_u64(p.integer ? 1 : 0, h);
  }
  fold_str(deck_spec_.objective.canonical());
  fold_d(deck_spec_.objective_weight);
  h = hash_u64(deck_spec_.lets.size(), h);
  for (const auto& [name, expr] : deck_spec_.lets) {
    fold_str(name);
    fold_str(expr.canonical());
  }
  h = hash_u64(deck_spec_.constraints.size(), h);
  for (const auto& c : deck_spec_.constraints) {
    fold_str(c.name);
    fold_str(c.expr.canonical());
    h = hash_u64(static_cast<std::uint64_t>(c.kind), h);
    fold_d(c.bound);
    fold_d(c.weight);
  }
  fingerprint_ = h == 0 ? 1 : h;  // 0 is the "no content fingerprint" sentinel

  validate();
}

void DeckProblem::validate() const {
  // Designables must name deck .params.
  std::set<std::string> deck_params;
  for (const auto& [name, expr] : deck_.params) deck_params.insert(name);
  std::set<std::string> designables;
  for (const auto& p : deck_spec_.params) {
    if (deck_params.count(p.name) == 0)
      throw std::invalid_argument("spec param '" + p.name + "' is not a .param in the deck");
    designables.insert(p.name);
  }

  // A designable may only drive retunable element fields: values fixed at
  // netlist construction (inductors, VCVS gains, model cards, analysis
  // sweep grids) would go silently stale on re-targeting.
  auto forbid = [&](const Expr& e, const std::string& what) {
    std::set<std::string> refs;
    e.collect_params(refs);
    for (const auto& r : refs)
      if (designables.count(r))
        throw std::invalid_argument("designable parameter '" + r + "' drives " + what +
                                    ", which cannot be retuned per design");
  };
  for (const auto& e : deck_.elements) {
    if (e.kind == ElementKind::Inductor) forbid(e.value, "inductor " + e.name + " (" + e.location + ")");
    if (e.kind == ElementKind::Vcvs) forbid(e.value, "VCVS " + e.name + " (" + e.location + ")");
  }
  for (const auto& m : deck_.models)
    for (const auto& [key, expr] : m.params)
      forbid(expr, "model parameter " + m.name + "." + key + " (" + m.location + ")");
  for (const auto& a : deck_.analyses)
    for (const Expr* e : {&a.f_start, &a.f_stop, &a.dt, &a.t_stop})
      if (!e->empty()) forbid(*e, std::string("the .") + to_string(a.kind) + " sweep grid (" +
                                      a.location + ")");

  // Every measure needs its analysis card; MagnitudeAt needs f=.
  for (const auto& m : deck_.measures) {
    if (deck_.analysis(m.analysis) == nullptr)
      throw std::invalid_argument(m.location + ": measure '" + m.name + "' needs a ." +
                                  to_string(m.analysis) + " card in the deck");
    if (m.kind == MeasureKind::MagnitudeAt && m.kv.count("F") == 0)
      throw std::invalid_argument(m.location + ": magat needs f=<frequency>");
  }

  // Objective / let / constraint expressions may reference measures, earlier
  // lets and .params only.
  std::set<std::string> known = deck_params;
  for (const auto& m : deck_.measures) known.insert(m.name);
  auto resolve = [&known](const Expr& e, const std::string& what) {
    std::set<std::string> refs;
    e.collect_params(refs);
    for (const auto& r : refs)
      if (known.count(r) == 0)
        throw std::invalid_argument(what + " references '" + r +
                                    "', which is neither a measure, a let nor a .param");
  };
  for (const auto& [name, expr] : deck_spec_.lets) {
    resolve(expr, "let " + name);
    known.insert(name);
  }
  resolve(deck_spec_.objective, "the minimize expression");
  for (const auto& c : deck_spec_.constraints) resolve(c.expr, "constraint " + c.name);

  // Nominal build: resolves models and probe nodes, surfaces wiring errors
  // at compile time instead of as failure metrics mid-optimization.
  DeckSession session(*this, ProcessVariation{});
  session.build();
}

std::vector<std::string> DeckProblem::parameter_names() const {
  std::vector<std::string> names;
  names.reserve(deck_spec_.params.size());
  for (const auto& p : deck_spec_.params) names.push_back(p.name);
  return names;
}

std::unique_ptr<ckt::EvalSession> DeckProblem::open_session(const ProcessVariation& pv) const {
  return std::make_unique<DeckSession>(*this, pv);
}

}  // namespace maopt::deck
