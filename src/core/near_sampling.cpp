#include "core/near_sampling.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace maopt::core {

Vec near_sampling_candidate(const ckt::SizingProblem& problem, const FomEvaluator& fom,
                            CriticEnsemble& critic, const nn::RangeScaler& scaler,
                            const Vec& x_opt_raw, const NearSamplingConfig& config, Rng& rng) {
  const std::size_t d = problem.dim();
  MAOPT_CHECK(x_opt_raw.size() == d, "near_sampling: x_opt dimension != problem dim");
  MAOPT_CHECK(critic.dim() == d, "near_sampling: critic dimension != problem dim");
  MAOPT_CHECK(config.num_samples >= 1, "near_sampling: num_samples must be >= 1");
  MAOPT_CHECK(config.delta_frac > 0.0, "near_sampling: delta_frac must be positive");
  const Vec& lo = problem.lower_bounds();
  const Vec& hi = problem.upper_bounds();
  const Vec x_opt_unit = scaler.to_unit(x_opt_raw);

  // Candidates are drawn and scored in blocks through one reused input and
  // output pair, so the critic's pass rows stay at block size instead of
  // growing to num_samples rows. Draw order, per-row predictions and the
  // strict-< first-minimum rule are those of one whole-matrix pass.
  constexpr std::size_t kBlockRows = 64;
  const auto n = static_cast<std::size_t>(config.num_samples);
  nn::Mat critic_in, raw_metrics, block_raw;
  Vec best_x;
  double best_g = 1e300;
  for (std::size_t k0 = 0; k0 < n; k0 += kBlockRows) {
    const std::size_t rows = std::min(kBlockRows, n - k0);
    critic_in.ensure_shape(rows, 2 * d);
    block_raw.ensure_shape(rows, d);
    for (std::size_t r = 0; r < rows; ++r) {
      Vec s(d);
      for (std::size_t i = 0; i < d; ++i) {
        const double delta = config.delta_frac * (hi[i] - lo[i]);
        s[i] = std::clamp(x_opt_raw[i] + rng.uniform(-delta, delta), lo[i], hi[i]);
      }
      s = problem.clip(std::move(s));
      const Vec su = scaler.to_unit(s);
      for (std::size_t i = 0; i < d; ++i) {
        critic_in(r, i) = x_opt_unit[i];
        critic_in(r, d + i) = su[i] - x_opt_unit[i];
      }
      std::copy(s.begin(), s.end(), block_raw.row(r).begin());
    }
    critic.predict_into(critic_in, raw_metrics);
    for (std::size_t r = 0; r < rows; ++r) {
      const double g = fom(raw_metrics.row(r));
      if (k0 + r == 0 || g < best_g) {
        best_g = std::min(best_g, g);  // sample 0 stands until something beats 1e300
        best_x.assign(block_raw.row(r).begin(), block_raw.row(r).end());
      }
    }
  }
  return best_x;
}

}  // namespace maopt::core
