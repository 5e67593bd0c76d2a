#include "circuits/two_stage_ota.hpp"

#include <array>
#include <cmath>

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
constexpr double kVcm = 0.9;    // input common mode
constexpr double kIbias = 20e-6;

struct OtaParams {
  double l[5];  // m
  double w[5];  // m
  double r;     // Ohm
  double c;     // F
  double cf;    // F
  double n[3];  // multipliers
};

OtaParams unpack(const Vec& x) {
  OtaParams p{};
  for (int i = 0; i < 5; ++i) p.l[i] = x[static_cast<std::size_t>(i)] * 1e-6;
  for (int i = 0; i < 5; ++i) p.w[i] = x[static_cast<std::size_t>(5 + i)] * 1e-6;
  p.r = x[10] * 1e3;
  p.c = x[11] * 1e-15;
  p.cf = x[12] * 1e-15;
  for (int i = 0; i < 3; ++i) p.n[i] = x[static_cast<std::size_t>(13 + i)];
  return p;
}

struct FetGeom {
  double w, l, m;
};

/// Geometry of every Mosfet, in build order: M8, M5, M1, M2, M3, M4, M6, M7.
std::array<FetGeom, 8> fet_geoms(const OtaParams& p) {
  return {{{p.w[2], p.l[2], 1.0},
           {p.w[2], p.l[2], p.n[0]},
           {p.w[0], p.l[0], 1.0},
           {p.w[0], p.l[0], 1.0},
           {p.w[1], p.l[1], 1.0},
           {p.w[1], p.l[1], 1.0},
           {p.w[3], p.l[3], p.n[1]},
           {p.w[4], p.l[4], p.n[2]}}};
}

/// Handles to the sources we drive in the different measurement setups.
///
/// Signal polarity in this topology: M2's gate (mirror-output side) is the
/// NON-inverting input — M2 gate up -> n2 down -> M6 (PMOS CS) sources more
/// -> OUT up. M1's gate is the inverting input, so the unity-gain buffer
/// ties OUT to M1's gate and drives M2's gate.
struct OtaBench {
  Netlist net;
  VSource* vdd = nullptr;
  VSource* vinp = nullptr;  ///< non-inverting input (M2 gate)
  VSource* vinn = nullptr;  ///< inverting input (M1 gate); null in unity-gain
  std::array<Mosfet*, 8> fets{};
  Resistor* rz = nullptr;
  Capacitor* cmiller = nullptr;
  Capacitor* cload = nullptr;
  int out = 0;
};

/// Builds the OTA; `unity_gain` ties M1's gate to OUT instead of a source.
OtaBench build(const OtaParams& p, bool unity_gain, const ProcessVariation& pv) {
  OtaBench b;
  Netlist& n = b.net;
  const int vdd = n.node("vdd");
  const int inp = n.node("inp");
  const int out = n.node("out");
  const int inn = unity_gain ? out : n.node("inn");
  const int tail = n.node("tail");
  const int n1 = n.node("n1");
  const int n2 = n.node("n2");
  const int vbn = n.node("vbn");
  const int nc = n.node("nc");
  const int gnd = n.node("0");

  const MosModel nm = MosModel::nmos_180();
  const MosModel pm = MosModel::pmos_180();

  // Per-device deterministic mismatch draws (one per Mosfet add, in order).
  Rng var_rng(derive_seed(pv.seed, 0x5A5A));
  auto vary = [&](const MosModel& m) { return pv.enabled() ? vary_model(m, var_rng, pv) : m; };

  b.vdd = n.add<VSource>(vdd, gnd, Waveform::dc(kVdd));
  b.vinp = n.add<VSource>(inp, gnd, Waveform::dc(kVcm));
  if (!unity_gain) b.vinn = n.add<VSource>(inn, gnd, Waveform::dc(kVcm));

  const auto fg = fet_geoms(p);
  // Bias: 20 uA into diode M8; M5 mirrors with multiplier N1.
  n.add<ISource>(vdd, vbn, Waveform::dc(kIbias));
  b.fets[0] = n.add<Mosfet>(vbn, vbn, gnd, gnd, vary(nm), fg[0].w, fg[0].l);            // M8
  b.fets[1] = n.add<Mosfet>(tail, vbn, gnd, gnd, vary(nm), fg[1].w, fg[1].l, fg[1].m);  // M5

  b.fets[2] = n.add<Mosfet>(n1, inn, tail, gnd, vary(nm), fg[2].w, fg[2].l);   // M1 (inverting)
  b.fets[3] = n.add<Mosfet>(n2, inp, tail, gnd, vary(nm), fg[3].w, fg[3].l);   // M2 (non-inverting)
  b.fets[4] = n.add<Mosfet>(n1, n1, vdd, vdd, vary(pm), fg[4].w, fg[4].l);     // M3 (diode)
  b.fets[5] = n.add<Mosfet>(n2, n1, vdd, vdd, vary(pm), fg[5].w, fg[5].l);     // M4

  b.fets[6] = n.add<Mosfet>(out, n2, vdd, vdd, vary(pm), fg[6].w, fg[6].l, fg[6].m);    // M6
  b.fets[7] = n.add<Mosfet>(out, vbn, gnd, gnd, vary(nm), fg[7].w, fg[7].l, fg[7].m);   // M7

  b.rz = n.add<Resistor>(n2, nc, p.r);                                   // nulling R
  b.cmiller = n.add<Capacitor>(nc, out, p.cf);                           // Miller cap
  b.cload = n.add<Capacitor>(out, gnd, p.c);                             // load cap

  b.out = out;
  n.prepare();
  return b;
}

/// Re-targets an existing bench at a new design: sets every x-dependent
/// device parameter and resets all source state a previous evaluation may
/// have left behind (swing-sweep DC level, transient waveform, AC
/// magnitudes — including after a mid-evaluation failure).
void apply(OtaBench& b, const OtaParams& p) {
  const auto fg = fet_geoms(p);
  for (std::size_t i = 0; i < fg.size(); ++i) b.fets[i]->set_geometry(fg[i].w, fg[i].l, fg[i].m);
  b.rz->set_resistance(p.r);
  b.cmiller->set_capacitance(p.cf);
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

/// Persistent evaluator: testbenches are built once and re-targeted per
/// design; the DC/AC/noise analyses keep their factorization workspaces
/// across designs. One instance per thread.
class OtaSession final : public EvalSession {
 public:
  OtaSession(const TwoStageOta& problem, const ProcessVariation& pv)
      : problem_(&problem), pv_(pv) {}

  EvalResult evaluate(const Vec& x) override {
    EvalResult result;
    result.metrics = problem_->failure_metrics();
    result.simulation_ok = false;
    try {
      const OtaParams p = unpack(x);
      if (!built_) {
        ug_ = build(p, /*unity_gain=*/true, pv_);
        ol_ = build(p, /*unity_gain=*/false, pv_);
        built_ = true;
      }
      apply(ug_, p);
      apply(ol_, p);

      // --- Unity-gain bench first: its OP provides the replica bias for the
      // open-loop AC measurements (a high-gain amp rails if both inputs sit at
      // exactly mid-rail, so the inverting input is pinned at the closed-loop
      // output voltage instead).
      const DcResult ug_op = dc_.solve(ug_.net);
      if (!ug_op.converged) return result;
      const double v_out_op = Netlist::voltage(ug_op.x, ug_.out);

      // --- Open-loop bench: OP, differential / common-mode / supply AC ---
      ol_.vinn->set_dc(v_out_op);
      const DcResult op = dc_.solve(ol_.net);
      if (!op.converged) return result;

      const double power_mw = std::abs(ol_.vdd->branch_current(op.x)) * kVdd * 1e3;

      // The three AC measurements differ only in excitation, so they share
      // one G/C assembly and one factorization per frequency: capture each
      // excitation's rhs, then sweep all of them together.
      const auto freqs = log_frequency_grid(1.0, 10e9, 10);
      std::vector<CVec> excitations(3);
      ol_.vinp->set_ac_magnitude(0.5);
      ol_.vinn->set_ac_magnitude(-0.5);
      ol_.net.build_ac_rhs(excitations[0]);  // differential
      ol_.vinp->set_ac_magnitude(1.0);
      ol_.vinn->set_ac_magnitude(1.0);
      ol_.net.build_ac_rhs(excitations[1]);  // common mode
      ol_.vinp->set_ac_magnitude(0.0);
      ol_.vinn->set_ac_magnitude(0.0);
      ol_.vdd->set_ac_magnitude(1.0);
      ol_.net.build_ac_rhs(excitations[2]);  // supply
      ol_.vdd->set_ac_magnitude(0.0);
      const auto sweeps = ac_.run_multi(ol_.net, op.x, freqs, excitations);
      const AcSweep& diff = sweeps[0];
      const double adm_db = dc_gain_db(diff, ol_.out);
      const auto ugf = unity_gain_frequency(diff, ol_.out);
      const auto pm = phase_margin_deg(diff, ol_.out);
      const double cmrr_db = adm_db - dc_gain_db(sweeps[1], ol_.out);
      const double psrr_db = adm_db - dc_gain_db(sweeps[2], ol_.out);

      // --- Unity-gain bench: settling, swing, noise ---
      // Integrated output noise, 1 Hz .. 1 GHz.
      const auto nfreqs = log_frequency_grid(1.0, 1e9, 8);
      const NoiseResult nres = noise_.run(ug_.net, ug_op.x, ug_.out, kGround, nfreqs);
      const double noise_mv = nres.total_rms * 1e3;

      // Output swing: sweep the buffer input and find the contiguous tracking
      // region (|vout - vin| < 150 mV) around mid-rail.
      Vec guess = ug_op.x;
      constexpr int kSweepPoints = 33;
      std::vector<bool> tracks(kSweepPoints, false);
      std::vector<double> vins(kSweepPoints);
      for (int k = 0; k < kSweepPoints; ++k) {
        const double vin = 0.05 + (kVdd - 0.1) * static_cast<double>(k) / (kSweepPoints - 1);
        vins[static_cast<std::size_t>(k)] = vin;
        ug_.vinp->set_dc(vin);
        const DcResult pt = dc_.solve(ug_.net, &guess);
        if (!pt.converged) continue;
        guess = pt.x;
        tracks[static_cast<std::size_t>(k)] =
            std::abs(Netlist::voltage(pt.x, ug_.out) - vin) < 0.15;
      }
      ug_.vinp->set_dc(kVcm);
      int mid = kSweepPoints / 2;
      double swing = 0.0;
      if (tracks[static_cast<std::size_t>(mid)]) {
        int lo = mid, hi = mid;
        while (lo > 0 && tracks[static_cast<std::size_t>(lo - 1)]) --lo;
        while (hi < kSweepPoints - 1 && tracks[static_cast<std::size_t>(hi + 1)]) ++hi;
        swing = vins[static_cast<std::size_t>(hi)] - vins[static_cast<std::size_t>(lo)];
      }

      // Settling: 100 mV input step in unity gain, 1% band.
      constexpr double kStepT = 10e-9;
      constexpr double kStepV = 0.1;
      ug_.vinp->set_waveform(
          Waveform::pwl({{0.0, kVcm}, {kStepT, kVcm}, {kStepT + 1e-9, kVcm + kStepV}}));
      TranOptions topt;
      topt.t_stop = 400e-9;
      topt.dt = 0.5e-9;
      TranAnalysis tran(topt);
      const TranResult tr = tran.run(ug_.net);
      double settling_ns = 1e4;  // fail sentinel: 10 us
      if (tr.converged) {
        const auto wave = tr.node_waveform(ug_.out);
        const double final_v = wave.back();
        if (std::abs(final_v - (kVcm + kStepV)) < 0.05) {
          const auto st = settling_time(tr.time, wave, kStepT, final_v, 0.01 * kStepV);
          if (st) settling_ns = *st * 1e9;
        }
      }

      result.metrics[TwoStageOta::kPowerMw] = power_mw;
      result.metrics[TwoStageOta::kDcGainDb] = adm_db;
      result.metrics[TwoStageOta::kCmrrDb] = cmrr_db;
      result.metrics[TwoStageOta::kPsrrDb] = psrr_db;
      result.metrics[TwoStageOta::kPhaseMarginDeg] = pm.value_or(0.0);
      result.metrics[TwoStageOta::kSettlingNs] = settling_ns;
      result.metrics[TwoStageOta::kUgfMhz] = ugf.value_or(0.0) * 1e-6;
      result.metrics[TwoStageOta::kSwingV] = swing;
      result.metrics[TwoStageOta::kNoiseMvrms] = noise_mv;
      result.simulation_ok = true;
      return result;
    } catch (const std::exception&) {
      return result;  // failure metrics already set
    }
  }

 private:
  const TwoStageOta* problem_;
  ProcessVariation pv_;
  bool built_ = false;
  OtaBench ug_, ol_;
  DcAnalysis dc_;
  AcAnalysis ac_;
  NoiseAnalysis noise_;
};

}  // namespace

TwoStageOta::TwoStageOta() {
  spec_.name = "two_stage_ota";
  spec_.target_name = "power";
  spec_.target_unit = "mW";
  spec_.target_weight = 0.01;  // w0: keeps the target term below any single clamped penalty
  spec_.constraints = {
      {"dc_gain", "dB", ConstraintKind::GreaterEqual, 60.0, 1.0},
      {"cmrr", "dB", ConstraintKind::GreaterEqual, 80.0, 1.0},
      {"psrr", "dB", ConstraintKind::GreaterEqual, 80.0, 1.0},
      {"phase_margin", "deg", ConstraintKind::GreaterEqual, 60.0, 1.0},
      {"settling_time", "ns", ConstraintKind::LessEqual, 100.0, 1.0},
      {"ugf", "MHz", ConstraintKind::GreaterEqual, 30.0, 1.0},
      // Paper bound is 1.5 V; the unity-buffer tracking measurement on this
      // NMOS-input topology ceilings at ~1.43 V (input common-mode range), so
      // 1.4 V keeps the constraint binding but achievable (see EXPERIMENTS.md).
      {"output_swing", "V", ConstraintKind::GreaterEqual, 1.4, 1.0},
      {"output_noise", "mVrms", ConstraintKind::LessEqual, 30.0, 1.0},
  };
  // Table I ranges, in natural units.
  lower_ = {0.18, 0.18, 0.18, 0.18, 0.18, 0.22, 0.22, 0.22, 0.22, 0.22, 0.1, 100, 100, 1, 1, 1};
  upper_ = {2, 2, 2, 2, 2, 150, 150, 150, 150, 150, 100, 2000, 10000, 20, 20, 20};
  integer_.assign(16, false);
  for (int i = 13; i < 16; ++i) integer_[static_cast<std::size_t>(i)] = true;
}

std::vector<std::string> TwoStageOta::parameter_names() const {
  return {"L1", "L2", "L3", "L4", "L5", "W1", "W2", "W3", "W4", "W5",
          "R",  "C",  "Cf", "N1", "N2", "N3"};
}

std::unique_ptr<EvalSession> TwoStageOta::open_session(const ProcessVariation& pv) const {
  return std::make_unique<OtaSession>(*this, pv);
}

}  // namespace maopt::ckt
