// Pseudo-sample generation (paper Eq. 3, population-based technique [20]):
// from N simulated designs, up to N^2 training pairs
//   input  (x_i, x_j - x_i)   ->   target f(x_j)
// teach the critic the effect of *moves* in the design space, not just
// point values. Pairs are drawn on demand instead of materializing N^2 rows.
#pragma once

#include "common/rng.hpp"
#include "core/history.hpp"
#include "nn/normalizer.hpp"

namespace maopt::core {

class PseudoSampleBatcher {
 public:
  /// Inputs are expressed in the unit design space defined by `scaler`;
  /// targets are raw metric vectors. The unit-scaled design matrix and the
  /// metric matrix are precomputed here — O(n*(d+m)) once — so sample() is
  /// pure row copies. Neither `records` nor `scaler` is retained.
  PseudoSampleBatcher(const std::vector<SimRecord>& records, const nn::RangeScaler& scaler);

  /// Draws `batch` (i, j) pairs uniformly with replacement and fills
  /// X (batch x 2d) = [unit(x_i), unit(x_j) - unit(x_i)] and
  /// Y (batch x (m+1)) = metrics(x_j). X and Y reuse capacity across calls:
  /// zero allocations once warmed. Thread-safe for concurrent callers with
  /// distinct `rng`/`x`/`y` (all shared state is read-only).
  void sample(std::size_t batch, Rng& rng, nn::Mat& x, nn::Mat& y) const;

  std::size_t population() const { return unit_.rows(); }
  /// The population in unit space, one design per row (population x d).
  const nn::Mat& unit_designs() const { return unit_; }

 private:
  nn::Mat unit_;     ///< (n x d) unit-space designs
  nn::Mat metrics_;  ///< (n x (m+1)) raw metric vectors
};

}  // namespace maopt::core
