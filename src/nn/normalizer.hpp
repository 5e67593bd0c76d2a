// Feature scaling. Designs are mapped to [-1, 1] from their box bounds
// (RangeScaler) so actor tanh outputs and critic inputs live on a common
// scale; simulation metrics are z-scored per column (ZScoreNormalizer)
// because their magnitudes span many decades (Hz vs V vs W).
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace maopt::nn {

using linalg::Mat;
using linalg::Vec;

/// Affine map between a box [lo, hi]^d and [-1, 1]^d.
class RangeScaler {
 public:
  RangeScaler() = default;
  RangeScaler(Vec lower, Vec upper);

  std::size_t dim() const { return lower_.size(); }

  Vec to_unit(const Vec& x) const;    ///< box -> [-1,1]
  Vec from_unit(const Vec& u) const;  ///< [-1,1] -> box (no clipping)
  Mat to_unit(const Mat& x) const;
  Mat from_unit(const Mat& u) const;

  /// Scales a *difference* vector (no offset): delta_box -> delta_unit.
  Vec delta_to_unit(const Vec& dx) const;
  Vec delta_from_unit(const Vec& du) const;

  const Vec& lower() const { return lower_; }
  const Vec& upper() const { return upper_; }

 private:
  Vec lower_, upper_, half_span_, center_;
};

/// Per-column standardization fitted on a sample matrix.
class ZScoreNormalizer {
 public:
  void fit(const Mat& samples);
  bool fitted() const { return !mean_.empty(); }

  Mat transform(const Mat& x) const;
  /// Allocation-free variant for hot loops: `z` is reshaped (capacity
  /// reused) and fully overwritten.
  void transform_into(const Mat& x, Mat& z) const;
  /// Row-wise inverse of transform: `x` is reshaped (capacity reused) and
  /// fully overwritten; must not alias `z`.
  void inverse_into(const Mat& z, Mat& x) const;
  Vec transform(const Vec& x) const;
  Vec inverse(const Vec& z) const;
  /// Maps a gradient w.r.t. normalized values back to raw units (dz -> dx).
  Vec gradient_to_raw(const Vec& dz) const;

  const Vec& mean() const { return mean_; }
  const Vec& std() const { return std_; }

 private:
  Vec mean_, std_;
};

}  // namespace maopt::nn
