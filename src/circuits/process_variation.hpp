// Process variation — an extension beyond the paper.
//
// A testbench simulated under an enabled ProcessVariation (evaluate_at /
// make_session_at) gives every MOSFET a corner shift plus independent,
// deterministic Gaussian perturbations of its threshold voltage and
// transconductance parameter (local mismatch), seeded per Monte Carlo
// instance. RobustProblem and YieldProblem (robust_problem.hpp) sweep these
// to answer the question the paper's nominal-only evaluation leaves open:
// how robust is an optimized design to fabrication spread?
#pragma once

#include <cstdint>

#include "circuits/sizing_problem.hpp"
#include "spice/mosfet.hpp"

namespace maopt::ckt {

/// Draws one perturbed model card from `rng` (each call = one device):
/// global corner shifts first, then local Gaussian mismatch.
spice::MosModel vary_model(const spice::MosModel& nominal, Rng& rng, const ProcessVariation& pv);

/// Standard process corners: fast/slow NMOS x fast/slow PMOS.
enum class ProcessCorner { TT, FF, SS, FS, SF };

const char* corner_name(ProcessCorner corner);

/// Deterministic ProcessVariation for a corner: fast = vth lowered by
/// `vth_step` and KP raised by `kp_step_rel`; slow = the opposite.
ProcessVariation corner_variation(ProcessCorner corner, double vth_step = 0.03,
                                  double kp_step_rel = 0.10);

/// Stable identity hash of a process-variation setting (common/hash): the
/// result cache folds it into the problem fingerprint so corner and Monte
/// Carlo results are addressed apart from nominal ones and from each other,
/// and fault injection folds it into its per-design draw. Returns 0 for a
/// disabled (all-default) variation — callers skip the fold so nominal keys,
/// and with them every pre-existing journal, stay byte-identical.
std::uint64_t variation_fingerprint(const ProcessVariation& pv);

}  // namespace maopt::ckt
