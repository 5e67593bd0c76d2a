// Near-sampling method (paper Algorithm 2, Fig. 3): dense uniform sampling
// in a small box around the best design found so far, ranked entirely by the
// critic; only the predicted-best sample is simulated. Exploitation
// counterpart to the exploratory actor-critic iterations.
#pragma once

#include "circuits/fom.hpp"
#include "core/critic.hpp"
#include "nn/normalizer.hpp"

namespace maopt::core {

struct NearSamplingConfig {
  int num_samples = 2000;    ///< N_samples (paper: 2000)
  double delta_frac = 0.02;  ///< delta_i as a fraction of each parameter's range
};

/// Returns the critic-predicted best design (raw units, clipped to bounds)
/// among `num_samples` draws in [x_opt - delta, x_opt + delta].
Vec near_sampling_candidate(const ckt::SizingProblem& problem, const FomEvaluator& fom,
                            CriticEnsemble& critic, const nn::RangeScaler& scaler,
                            const Vec& x_opt_raw, const NearSamplingConfig& config, Rng& rng);

}  // namespace maopt::core
