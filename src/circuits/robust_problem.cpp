#include "circuits/robust_problem.hpp"

#include <cmath>
#include <utility>

#include "common/check.hpp"

namespace maopt::ckt {

namespace {

std::vector<SweepVariant> corner_variants(const RobustConfig& config) {
  MAOPT_CHECK(!config.corners.empty(), "RobustProblem: empty corner set");
  MAOPT_CHECK(std::isfinite(config.vth_step) && std::isfinite(config.kp_step_rel),
              "RobustProblem: corner steps must be finite");
  for (std::size_t i = 0; i < config.corners.size(); ++i)
    for (std::size_t j = i + 1; j < config.corners.size(); ++j)
      MAOPT_CHECK(config.corners[i] != config.corners[j],
                  "RobustProblem: duplicate corner in corner set");
  std::vector<SweepVariant> variants;
  variants.reserve(config.corners.size());
  for (const ProcessCorner corner : config.corners)
    variants.push_back({corner_variation(corner, config.vth_step, config.kp_step_rel),
                        corner_name(corner)});
  return variants;
}

std::vector<SweepVariant> mismatch_variants(const MismatchSettings& settings) {
  validate_mismatch_settings(settings);
  std::vector<SweepVariant> variants;
  variants.reserve(static_cast<std::size_t>(settings.instances));
  for (int k = 0; k < settings.instances; ++k) {
    ProcessVariation pv;
    pv.sigma_vth = settings.sigma_vth;
    pv.sigma_kp_rel = settings.sigma_kp_rel;
    pv.seed = settings.seed_base + static_cast<std::uint64_t>(k);
    variants.push_back({pv, "mc" + std::to_string(k)});
  }
  return variants;
}

}  // namespace

RobustProblem::RobustProblem(const SizingProblem& inner, RobustConfig config)
    : VariationSweepProblem(inner, corner_variants(config), config.policy, "corners"),
      config_(std::move(config)) {
  // A TT-only sweep has no enabled variation, so the engine's own support
  // check would not fire; robust optimization is nonetheless meaningless on
  // a variation-unaware problem.
  MAOPT_CHECK(inner.supports_process_variation(),
              "RobustProblem: inner problem has no process-variation support");
}

void validate_mismatch_settings(const MismatchSettings& settings) {
  MAOPT_CHECK(settings.instances >= 1, "MismatchSettings: instances must be >= 1");
  MAOPT_CHECK(std::isfinite(settings.sigma_vth) && settings.sigma_vth >= 0.0,
              "MismatchSettings: sigma_vth must be finite and >= 0");
  MAOPT_CHECK(std::isfinite(settings.sigma_kp_rel) && settings.sigma_kp_rel >= 0.0,
              "MismatchSettings: sigma_kp_rel must be finite and >= 0");
  MAOPT_CHECK(settings.sigma_vth > 0.0 || settings.sigma_kp_rel > 0.0,
              "MismatchSettings: at least one sigma must be > 0 (all-nominal sweep)");
}

YieldProblem::YieldProblem(const SizingProblem& inner, YieldConfig config)
    : VariationSweepProblem(inner, mismatch_variants(config.mismatch), config.policy,
                            "monte-carlo"),
      config_(std::move(config)) {}

}  // namespace maopt::ckt
