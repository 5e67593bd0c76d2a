#include "circuits/folded_cascode_ota.hpp"

#include <array>
#include <cmath>

#include "spice/dc_analysis.hpp"
#include "circuits/process_variation.hpp"
#include "spice/devices.hpp"
#include "spice/measure.hpp"
#include "spice/mosfet.hpp"
#include "spice/noise_analysis.hpp"
#include "spice/tran_analysis.hpp"

namespace maopt::ckt {

namespace {

using namespace maopt::spice;

constexpr double kVdd = 1.8;
constexpr double kVcm = 0.9;
constexpr double kIbias = 20e-6;
constexpr double kVcascN = 0.9;  // NMOS cascode gate bias
constexpr double kVcascP = 0.9;  // PMOS cascode gate bias

struct FcParams {
  double l[5];
  double w[5];
  double c;
  double n[3];
};

FcParams unpack(const Vec& x) {
  FcParams p{};
  for (int i = 0; i < 5; ++i) p.l[i] = x[static_cast<std::size_t>(i)] * 1e-6;
  for (int i = 0; i < 5; ++i) p.w[i] = x[static_cast<std::size_t>(5 + i)] * 1e-6;
  p.c = x[10] * 1e-15;
  for (int i = 0; i < 3; ++i) p.n[i] = x[static_cast<std::size_t>(11 + i)];
  return p;
}

struct FetGeom {
  double w, l, m;
};

/// Geometry of every Mosfet, in build order: PMOS bias diode, M0 tail, NMOS
/// bias diode, M1, M2, M3, M4, M5, M6, M7, M8, M9, M10.
std::array<FetGeom, 13> fet_geoms(const FcParams& p) {
  return {{{p.w[1], p.l[1], 1.0},
           {p.w[1], p.l[1], p.n[0]},
           {p.w[2], p.l[2], 1.0},
           {p.w[0], p.l[0], 1.0},
           {p.w[0], p.l[0], 1.0},
           {p.w[2], p.l[2], p.n[1]},
           {p.w[2], p.l[2], p.n[1]},
           {p.w[3], p.l[3], 1.0},
           {p.w[3], p.l[3], 1.0},
           {p.w[4], p.l[4], p.n[2]},
           {p.w[4], p.l[4], p.n[2]},
           {p.w[4], p.l[4], p.n[2]},
           {p.w[4], p.l[4], p.n[2]}}};
}

struct FcBench {
  Netlist net;
  VSource* vdd = nullptr;
  VSource* vinp = nullptr;  ///< non-inverting (M1 gate)
  VSource* vinn = nullptr;  ///< inverting (M2 gate); null in unity-gain
  std::array<Mosfet*, 13> fets{};
  Capacitor* cload = nullptr;
  int out = 0;
};

FcBench build(const FcParams& p, bool unity_gain, const ProcessVariation& pv) {
  FcBench b;
  Netlist& n = b.net;
  const int vdd = n.node("vdd");
  const int inp = n.node("inp");
  const int out = n.node("out");
  const int inn = unity_gain ? out : n.node("inn");
  const int tailp = n.node("tailp");
  const int fa = n.node("fa");
  const int fb = n.node("fb");
  const int ma = n.node("ma");
  const int pa = n.node("pa");
  const int pb = n.node("pb");
  const int vbp = n.node("vbp");
  const int vbn = n.node("vbn");
  const int vcn = n.node("vcn");
  const int vcp = n.node("vcp");
  const int gnd = n.node("0");

  const MosModel nm = MosModel::nmos_180();
  const MosModel pm = MosModel::pmos_180();

  // Per-device deterministic mismatch draws (one per Mosfet add, in order).
  Rng var_rng(derive_seed(pv.seed, 0x5A5A));
  auto vary = [&](const MosModel& m) { return pv.enabled() ? vary_model(m, var_rng, pv) : m; };

  b.vdd = n.add<VSource>(vdd, gnd, Waveform::dc(kVdd));
  b.vinp = n.add<VSource>(inp, gnd, Waveform::dc(kVcm));
  if (!unity_gain) b.vinn = n.add<VSource>(inn, gnd, Waveform::dc(kVcm));
  n.add<VSource>(vcn, gnd, Waveform::dc(kVcascN));
  n.add<VSource>(vcp, gnd, Waveform::dc(kVcascP));

  const auto fg = fet_geoms(p);
  // PMOS bias diode + tail; NMOS bias diode for the folding sinks.
  n.add<ISource>(vbp, gnd, Waveform::dc(kIbias));
  b.fets[0] = n.add<Mosfet>(vbp, vbp, vdd, vdd, vary(pm), fg[0].w, fg[0].l);             // PMOS diode
  b.fets[1] = n.add<Mosfet>(tailp, vbp, vdd, vdd, vary(pm), fg[1].w, fg[1].l, fg[1].m);  // M0 tail
  n.add<ISource>(vdd, vbn, Waveform::dc(kIbias));
  b.fets[2] = n.add<Mosfet>(vbn, vbn, gnd, gnd, vary(nm), fg[2].w, fg[2].l);             // NMOS diode

  b.fets[3] = n.add<Mosfet>(fa, inp, tailp, vdd, vary(pm), fg[3].w, fg[3].l);            // M1
  b.fets[4] = n.add<Mosfet>(fb, inn, tailp, vdd, vary(pm), fg[4].w, fg[4].l);            // M2

  b.fets[5] = n.add<Mosfet>(fa, vbn, gnd, gnd, vary(nm), fg[5].w, fg[5].l, fg[5].m);     // M3 sink
  b.fets[6] = n.add<Mosfet>(fb, vbn, gnd, gnd, vary(nm), fg[6].w, fg[6].l, fg[6].m);     // M4 sink

  b.fets[7] = n.add<Mosfet>(ma, vcn, fa, gnd, vary(nm), fg[7].w, fg[7].l);               // M5 cascode
  b.fets[8] = n.add<Mosfet>(out, vcn, fb, gnd, vary(nm), fg[8].w, fg[8].l);              // M6 cascode

  // High-swing cascode PMOS mirror: gate of M7/M8 tied to the diode-side
  // cascode output `ma`.
  b.fets[9] = n.add<Mosfet>(pa, ma, vdd, vdd, vary(pm), fg[9].w, fg[9].l, fg[9].m);      // M7
  b.fets[10] = n.add<Mosfet>(pb, ma, vdd, vdd, vary(pm), fg[10].w, fg[10].l, fg[10].m);  // M8
  b.fets[11] = n.add<Mosfet>(ma, vcp, pa, vdd, vary(pm), fg[11].w, fg[11].l, fg[11].m);  // M9 cascode
  b.fets[12] = n.add<Mosfet>(out, vcp, pb, vdd, vary(pm), fg[12].w, fg[12].l, fg[12].m); // M10 cascode

  b.cload = n.add<Capacitor>(out, gnd, p.c);

  b.out = out;
  n.prepare();
  return b;
}

/// Re-targets an existing bench at a new design, resetting all source state
/// a previous evaluation may have left behind (see TwoStageOta::apply).
void apply(FcBench& b, const FcParams& p) {
  const auto fg = fet_geoms(p);
  for (std::size_t i = 0; i < fg.size(); ++i) b.fets[i]->set_geometry(fg[i].w, fg[i].l, fg[i].m);
  b.cload->set_capacitance(p.c);
  b.vdd->set_dc(kVdd);
  b.vdd->set_ac_magnitude(0.0);
  b.vinp->set_dc(kVcm);
  b.vinp->set_ac_magnitude(0.0);
  if (b.vinn != nullptr) {
    b.vinn->set_dc(kVcm);
    b.vinn->set_ac_magnitude(0.0);
  }
}

/// Persistent evaluator: testbenches built once, re-targeted per design;
/// solver workspaces reused across designs. One instance per thread.
class FcSession final : public EvalSession {
 public:
  FcSession(const FoldedCascodeOta& problem, const ProcessVariation& pv)
      : problem_(&problem), pv_(pv) {}

  EvalResult evaluate(const Vec& x) override {
    EvalResult result;
    result.metrics = problem_->failure_metrics();
    result.simulation_ok = false;
    try {
      const FcParams p = unpack(x);
      if (!built_) {
        ug_ = build(p, /*unity_gain=*/true, pv_);
        ol_ = build(p, /*unity_gain=*/false, pv_);
        built_ = true;
      }
      apply(ug_, p);
      apply(ol_, p);

      // Unity-gain OP for the replica bias (see TwoStageOta for rationale).
      const DcResult ug_op = dc_.solve(ug_.net);
      if (!ug_op.converged) return result;
      const double v_out_op = Netlist::voltage(ug_op.x, ug_.out);

      ol_.vinn->set_dc(v_out_op);
      const DcResult op = dc_.solve(ol_.net);
      if (!op.converged) return result;

      const double power_mw = std::abs(ol_.vdd->branch_current(op.x)) * kVdd * 1e3;

      // Differential and common-mode sweeps share one factorization per
      // frequency (same G/C, different excitation).
      const auto freqs = log_frequency_grid(1.0, 10e9, 10);
      std::vector<CVec> excitations(2);
      ol_.vinp->set_ac_magnitude(0.5);
      ol_.vinn->set_ac_magnitude(-0.5);
      ol_.net.build_ac_rhs(excitations[0]);
      ol_.vinp->set_ac_magnitude(1.0);
      ol_.vinn->set_ac_magnitude(1.0);
      ol_.net.build_ac_rhs(excitations[1]);
      ol_.vinp->set_ac_magnitude(0.0);
      ol_.vinn->set_ac_magnitude(0.0);
      const auto sweeps = ac_.run_multi(ol_.net, op.x, freqs, excitations);
      const AcSweep& diff = sweeps[0];
      const double adm_db = dc_gain_db(diff, ol_.out);
      const auto ugf = unity_gain_frequency(diff, ol_.out);
      const auto pm = phase_margin_deg(diff, ol_.out);
      const double cmrr_db = adm_db - dc_gain_db(sweeps[1], ol_.out);

      const NoiseResult nres =
          noise_.run(ug_.net, ug_op.x, ug_.out, kGround, log_frequency_grid(1.0, 1e9, 8));
      const double noise_mv = nres.total_rms * 1e3;

      // Settling: 100 mV step in unity gain.
      constexpr double kStepT = 10e-9;
      constexpr double kStepV = 0.1;
      ug_.vinp->set_waveform(
          Waveform::pwl({{0.0, kVcm}, {kStepT, kVcm}, {kStepT + 1e-9, kVcm + kStepV}}));
      TranOptions topt;
      topt.t_stop = 400e-9;
      topt.dt = 0.5e-9;
      const TranResult tr = TranAnalysis(topt).run(ug_.net);
      double settling_ns = 1e4;
      if (tr.converged) {
        const auto wave = tr.node_waveform(ug_.out);
        const double final_v = wave.back();
        if (std::abs(final_v - (kVcm + kStepV)) < 0.05) {
          const auto st = settling_time(tr.time, wave, kStepT, final_v, 0.01 * kStepV);
          if (st) settling_ns = *st * 1e9;
        }
      }

      result.metrics[FoldedCascodeOta::kPowerMw] = power_mw;
      result.metrics[FoldedCascodeOta::kDcGainDb] = adm_db;
      result.metrics[FoldedCascodeOta::kCmrrDb] = cmrr_db;
      result.metrics[FoldedCascodeOta::kPhaseMarginDeg] = pm.value_or(0.0);
      result.metrics[FoldedCascodeOta::kSettlingNs] = settling_ns;
      result.metrics[FoldedCascodeOta::kUgfMhz] = ugf.value_or(0.0) * 1e-6;
      result.metrics[FoldedCascodeOta::kNoiseMvrms] = noise_mv;
      result.simulation_ok = true;
      return result;
    } catch (const std::exception&) {
      return result;
    }
  }

 private:
  const FoldedCascodeOta* problem_;
  ProcessVariation pv_;
  bool built_ = false;
  FcBench ug_, ol_;
  DcAnalysis dc_;
  AcAnalysis ac_;
  NoiseAnalysis noise_;
};

}  // namespace

FoldedCascodeOta::FoldedCascodeOta() {
  spec_.name = "folded_cascode_ota";
  spec_.target_name = "power";
  spec_.target_unit = "mW";
  spec_.target_weight = 0.01;
  spec_.constraints = {
      {"dc_gain", "dB", ConstraintKind::GreaterEqual, 75.0, 1.0},
      {"cmrr", "dB", ConstraintKind::GreaterEqual, 90.0, 1.0},
      {"phase_margin", "deg", ConstraintKind::GreaterEqual, 70.0, 1.0},
      {"settling_time", "ns", ConstraintKind::LessEqual, 60.0, 1.0},
      {"ugf", "MHz", ConstraintKind::GreaterEqual, 80.0, 1.0},
      {"output_noise", "mVrms", ConstraintKind::LessEqual, 1.0, 1.0},
  };
  lower_ = {0.18, 0.18, 0.18, 0.18, 0.18, 0.22, 0.22, 0.22, 0.22, 0.22, 100, 1, 1, 1};
  upper_ = {2, 2, 2, 2, 2, 150, 150, 150, 150, 150, 2000, 20, 20, 20};
  integer_.assign(14, false);
  for (int i = 11; i < 14; ++i) integer_[static_cast<std::size_t>(i)] = true;
}

std::vector<std::string> FoldedCascodeOta::parameter_names() const {
  return {"L1", "L2", "L3", "L4", "L5", "W1", "W2", "W3", "W4", "W5", "C", "N1", "N2", "N3"};
}

std::unique_ptr<EvalSession> FoldedCascodeOta::open_session(const ProcessVariation& pv) const {
  return std::make_unique<FcSession>(*this, pv);
}

}  // namespace maopt::ckt
