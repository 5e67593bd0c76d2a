#include "circuits/process_variation.hpp"

#include <cmath>

namespace maopt::ckt {

spice::MosModel vary_model(const spice::MosModel& nominal, Rng& rng, const ProcessVariation& pv) {
  spice::MosModel m = nominal;
  // Global corner shift by device type.
  if (m.type == spice::MosType::Nmos) {
    m.vth0 += pv.nmos_vth_shift;
    m.kp *= pv.nmos_kp_factor;
  } else {
    m.vth0 += pv.pmos_vth_shift;
    m.kp *= pv.pmos_kp_factor;
  }
  // Local mismatch on top.
  if (pv.sigma_vth != 0.0) m.vth0 += rng.normal(0.0, pv.sigma_vth);
  if (pv.sigma_kp_rel != 0.0) {
    const double factor = 1.0 + rng.normal(0.0, pv.sigma_kp_rel);
    m.kp *= std::max(0.05, factor);  // keep the card physical
  }
  return m;
}

const char* corner_name(ProcessCorner corner) {
  switch (corner) {
    case ProcessCorner::TT: return "TT";
    case ProcessCorner::FF: return "FF";
    case ProcessCorner::SS: return "SS";
    case ProcessCorner::FS: return "FS";
    case ProcessCorner::SF: return "SF";
  }
  return "?";
}

ProcessVariation corner_variation(ProcessCorner corner, double vth_step, double kp_step_rel) {
  ProcessVariation pv;
  const auto fast_n = [&] {
    pv.nmos_vth_shift = -vth_step;
    pv.nmos_kp_factor = 1.0 + kp_step_rel;
  };
  const auto slow_n = [&] {
    pv.nmos_vth_shift = vth_step;
    pv.nmos_kp_factor = 1.0 - kp_step_rel;
  };
  const auto fast_p = [&] {
    pv.pmos_vth_shift = -vth_step;
    pv.pmos_kp_factor = 1.0 + kp_step_rel;
  };
  const auto slow_p = [&] {
    pv.pmos_vth_shift = vth_step;
    pv.pmos_kp_factor = 1.0 - kp_step_rel;
  };
  switch (corner) {
    case ProcessCorner::TT: break;
    case ProcessCorner::FF: fast_n(); fast_p(); break;
    case ProcessCorner::SS: slow_n(); slow_p(); break;
    case ProcessCorner::FS: fast_n(); slow_p(); break;
    case ProcessCorner::SF: slow_n(); fast_p(); break;
  }
  return pv;
}

}  // namespace maopt::ckt
