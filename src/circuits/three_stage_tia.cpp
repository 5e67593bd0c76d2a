#include "circuits/three_stage_tia.hpp"

#include <array>
#include <cmath>

#include "spice/dc_analysis.hpp"
#include "circuits/process_variation.hpp"
#include "spice/devices.hpp"
#include "spice/measure.hpp"
#include "spice/mosfet.hpp"
#include "spice/noise_analysis.hpp"

namespace maopt::ckt {

namespace {

using namespace maopt::spice;

constexpr double kVdd = 1.8;
constexpr double kCpd = 200e-15;    // photodiode capacitance
constexpr double kRbuf = 10e3;      // follower bias resistor

struct TiaParams {
  double l[5];
  double w[5];
  double r;
  double cf;
  double n[3];
};

TiaParams unpack(const Vec& x) {
  TiaParams p{};
  for (int i = 0; i < 5; ++i) p.l[i] = x[static_cast<std::size_t>(i)] * 1e-6;
  for (int i = 0; i < 5; ++i) p.w[i] = x[static_cast<std::size_t>(5 + i)] * 1e-6;
  p.r = x[10] * 1e3;
  p.cf = x[11] * 1e-15;
  for (int i = 0; i < 3; ++i) p.n[i] = x[static_cast<std::size_t>(12 + i)];
  return p;
}

struct FetGeom {
  double w, l, m;
};

/// Geometry of the core amp's Mosfets, in build_amp order:
/// M1, load1, M2, load2, M3, load3, follower.
std::array<FetGeom, 7> fet_geoms(const TiaParams& p) {
  return {{{p.w[0], p.l[0], p.n[0]},
           {p.w[3], p.l[3], 1.0},
           {p.w[1], p.l[1], p.n[1]},
           {p.w[3], p.l[3], 1.0},
           {p.w[2], p.l[2], p.n[2]},
           {p.w[3], p.l[3], 1.0},
           {p.w[4], p.l[4], 1.0}}};
}

struct TiaBench {
  Netlist net;
  VSource* vdd = nullptr;
  ISource* iin = nullptr;   // closed-loop bench only
  VSource* vin = nullptr;   // open-loop bench only
  VSource* vrep = nullptr;  // open-loop bench only (replica bias)
  std::array<Mosfet*, 7> fets{};
  Resistor* rf = nullptr;
  Capacitor* cf = nullptr;
  int in = 0;
  int out = 0;
};

/// Core amplifier shared by both benches; returns the (input, output) nodes.
std::pair<int, int> build_amp(TiaBench& b, const TiaParams& p, int vdd, int gnd,
                              const ProcessVariation& pv) {
  Netlist& n = b.net;
  const int in = n.node("in");
  const int s1 = n.node("s1");
  const int s2 = n.node("s2");
  const int s3 = n.node("s3");
  const int out = n.node("out");

  const MosModel nm = MosModel::nmos_180();
  const MosModel pm = MosModel::pmos_180();

  // Per-device deterministic mismatch draws (one per Mosfet add, in order).
  Rng var_rng(derive_seed(pv.seed, 0x5A5A));
  auto vary = [&](const MosModel& m) { return pv.enabled() ? vary_model(m, var_rng, pv) : m; };

  const auto fg = fet_geoms(p);
  b.fets[0] = n.add<Mosfet>(s1, in, gnd, gnd, vary(nm), fg[0].w, fg[0].l, fg[0].m);   // M1
  b.fets[1] = n.add<Mosfet>(s1, s1, vdd, vdd, vary(pm), fg[1].w, fg[1].l);            // load 1 (diode)
  b.fets[2] = n.add<Mosfet>(s2, s1, gnd, gnd, vary(nm), fg[2].w, fg[2].l, fg[2].m);   // M2
  b.fets[3] = n.add<Mosfet>(s2, s2, vdd, vdd, vary(pm), fg[3].w, fg[3].l);            // load 2
  b.fets[4] = n.add<Mosfet>(s3, s2, gnd, gnd, vary(nm), fg[4].w, fg[4].l, fg[4].m);   // M3
  b.fets[5] = n.add<Mosfet>(s3, s3, vdd, vdd, vary(pm), fg[5].w, fg[5].l);            // load 3
  b.fets[6] = n.add<Mosfet>(vdd, s3, out, gnd, vary(nm), fg[6].w, fg[6].l);           // follower
  n.add<Resistor>(out, gnd, kRbuf);
  return {in, out};
}

TiaBench build_closed_loop(const TiaParams& p, const ProcessVariation& pv) {
  TiaBench b;
  Netlist& n = b.net;
  const int vdd = n.node("vdd");
  const int gnd = n.node("0");
  b.vdd = n.add<VSource>(vdd, gnd, Waveform::dc(kVdd));
  const auto [in, out] = build_amp(b, p, vdd, gnd, pv);
  b.in = in;
  b.out = out;
  b.rf = n.add<Resistor>(out, in, p.r);
  b.cf = n.add<Capacitor>(out, in, p.cf);
  n.add<Capacitor>(in, gnd, kCpd);
  b.iin = n.add<ISource>(gnd, in, Waveform::dc(0.0));
  n.prepare();
  return b;
}

/// Replica-bias open-loop bench: the input gate is driven by a voltage
/// source at the closed-loop bias `v_in_op`; the feedback network loads the
/// output but terminates into a fixed replica source instead of the input.
TiaBench build_open_loop(const TiaParams& p, double v_in_op, const ProcessVariation& pv) {
  TiaBench b;
  Netlist& n = b.net;
  const int vdd = n.node("vdd");
  const int gnd = n.node("0");
  b.vdd = n.add<VSource>(vdd, gnd, Waveform::dc(kVdd));
  const auto [in, out] = build_amp(b, p, vdd, gnd, pv);
  b.in = in;
  b.out = out;
  b.vin = n.add<VSource>(in, gnd, Waveform::dc(v_in_op));
  const int rep = n.node("replica");
  b.vrep = n.add<VSource>(rep, gnd, Waveform::dc(v_in_op));
  b.rf = n.add<Resistor>(out, rep, p.r);
  b.cf = n.add<Capacitor>(out, rep, p.cf);
  n.prepare();
  return b;
}

/// Re-targets an existing bench at a new design, resetting all mutable
/// source state. The open-loop input/replica bias is design-dependent and is
/// applied at the use site once the closed-loop OP is known.
void apply(TiaBench& b, const TiaParams& p) {
  const auto fg = fet_geoms(p);
  for (std::size_t i = 0; i < fg.size(); ++i) b.fets[i]->set_geometry(fg[i].w, fg[i].l, fg[i].m);
  b.rf->set_resistance(p.r);
  b.cf->set_capacitance(p.cf);
  b.vdd->set_dc(kVdd);
  b.vdd->set_ac_magnitude(0.0);
  if (b.iin != nullptr) {
    b.iin->set_dc(0.0);
    b.iin->set_ac_magnitude(0.0);
  }
  if (b.vin != nullptr) b.vin->set_ac_magnitude(0.0);
}

/// Persistent evaluator: testbenches built once, re-targeted per design;
/// solver workspaces reused across designs. One instance per thread.
class TiaSession final : public EvalSession {
 public:
  TiaSession(const ThreeStageTia& problem, const ProcessVariation& pv)
      : problem_(&problem), pv_(pv) {}

  EvalResult evaluate(const Vec& x) override {
    EvalResult result;
    result.metrics = problem_->failure_metrics();
    result.simulation_ok = false;
    try {
      const TiaParams p = unpack(x);
      if (!cl_built_) {
        cl_ = build_closed_loop(p, pv_);
        cl_built_ = true;
      }
      apply(cl_, p);

      const DcResult op = dc_.solve(cl_.net);
      if (!op.converged) return result;

      const double power_mw = std::abs(cl_.vdd->branch_current(op.x)) * kVdd * 1e3;
      const double v_in_op = Netlist::voltage(op.x, cl_.in);

      // Transimpedance: 1 A AC input current -> V(out) is Z_T directly.
      const auto freqs = log_frequency_grid(1e3, 100e9, 10);
      cl_.iin->set_ac_magnitude(1.0);
      const AcSweep zt = ac_.run(cl_.net, op.x, freqs);
      const double zt_db = dc_gain_db(zt, cl_.out);

      // Input-referred current noise at 10 MHz: S_in = S_out / |Z_T|^2.
      const std::vector<double> nf = {10e6};
      const NoiseResult nres = noise_.run(cl_.net, op.x, cl_.out, kGround, nf);
      const double zt_10m = magnitude_at(zt, cl_.out, 10e6);
      const double in_noise_pa =
          std::sqrt(nres.output_psd[0]) / std::max(zt_10m, 1e-12) * 1e12;

      // Open-loop amplifier UGF via the replica-bias bench. The bench is
      // built lazily with the first design's bias; later designs re-point the
      // input/replica sources at their own v_in_op.
      if (!ol_built_) {
        ol_ = build_open_loop(p, v_in_op, pv_);
        ol_built_ = true;
      }
      apply(ol_, p);
      ol_.vin->set_dc(v_in_op);
      ol_.vrep->set_dc(v_in_op);
      const DcResult ol_op = dc_.solve(ol_.net);
      double ugf_ghz = 0.0;
      if (ol_op.converged) {
        ol_.vin->set_ac_magnitude(1.0);
        const AcSweep av = ac_.run(ol_.net, ol_op.x, freqs);
        ugf_ghz = unity_gain_frequency(av, ol_.out).value_or(0.0) * 1e-9;
      }

      result.metrics[ThreeStageTia::kPowerMw] = power_mw;
      result.metrics[ThreeStageTia::kZtDbOhm] = zt_db;
      result.metrics[ThreeStageTia::kUgfGhz] = ugf_ghz;
      result.metrics[ThreeStageTia::kInputNoisePa] = in_noise_pa;
      result.simulation_ok = true;
      return result;
    } catch (const std::exception&) {
      return result;
    }
  }

 private:
  const ThreeStageTia* problem_;
  ProcessVariation pv_;
  bool cl_built_ = false;
  bool ol_built_ = false;
  TiaBench cl_, ol_;
  DcAnalysis dc_;
  AcAnalysis ac_;
  NoiseAnalysis noise_;
};

}  // namespace

ThreeStageTia::ThreeStageTia() {
  spec_.name = "three_stage_tia";
  spec_.target_name = "power";
  spec_.target_unit = "mW";
  spec_.target_weight = 0.01;  // w0: keeps the target term below any single clamped penalty
  spec_.constraints = {
      // Eq. 8 bounds rescaled to this substrate's level-1 devices so that the
      // joint feasible region keeps the paper's hardness (random sampling
      // essentially never satisfies all three at once; see EXPERIMENTS.md).
      {"zt_dc_gain", "dBOhm", ConstraintKind::GreaterEqual, 95.0, 1.0},
      {"ugf", "GHz", ConstraintKind::GreaterEqual, 1.7, 1.0},
      {"input_noise", "pA/sqrtHz", ConstraintKind::LessEqual, 2.0, 1.0},
  };
  lower_ = {0.18, 0.18, 0.18, 0.18, 0.18, 0.22, 0.22, 0.22, 0.22, 0.22, 0.1, 100, 1, 1, 1};
  upper_ = {2, 2, 2, 2, 2, 150, 150, 150, 150, 150, 100, 2000, 20, 20, 20};
  integer_.assign(15, false);
  for (int i = 12; i < 15; ++i) integer_[static_cast<std::size_t>(i)] = true;
}

std::vector<std::string> ThreeStageTia::parameter_names() const {
  return {"L1", "L2", "L3", "L4", "L5", "W1", "W2", "W3", "W4", "W5", "R", "Cf", "N1", "N2", "N3"};
}

std::unique_ptr<EvalSession> ThreeStageTia::open_session(const ProcessVariation& pv) const {
  return std::make_unique<TiaSession>(*this, pv);
}

}  // namespace maopt::ckt
