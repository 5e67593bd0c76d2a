#include "nn/normalizer.hpp"

#include <cmath>
#include <stdexcept>

namespace maopt::nn {

RangeScaler::RangeScaler(Vec lower, Vec upper) : lower_(std::move(lower)), upper_(std::move(upper)) {
  if (lower_.size() != upper_.size()) throw std::invalid_argument("RangeScaler: bound size mismatch");
  half_span_.resize(lower_.size());
  center_.resize(lower_.size());
  for (std::size_t i = 0; i < lower_.size(); ++i) {
    if (!(upper_[i] > lower_[i])) throw std::invalid_argument("RangeScaler: upper must exceed lower");
    half_span_[i] = 0.5 * (upper_[i] - lower_[i]);
    center_[i] = 0.5 * (upper_[i] + lower_[i]);
  }
}

Vec RangeScaler::to_unit(const Vec& x) const {
  if (x.size() != dim()) throw std::invalid_argument("RangeScaler::to_unit: size mismatch");
  Vec u(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) u[i] = (x[i] - center_[i]) / half_span_[i];
  return u;
}

Vec RangeScaler::from_unit(const Vec& u) const {
  if (u.size() != dim()) throw std::invalid_argument("RangeScaler::from_unit: size mismatch");
  Vec x(u.size());
  for (std::size_t i = 0; i < u.size(); ++i) x[i] = center_[i] + half_span_[i] * u[i];
  return x;
}

Mat RangeScaler::to_unit(const Mat& x) const {
  Mat u(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r)
    for (std::size_t c = 0; c < x.cols(); ++c) u(r, c) = (x(r, c) - center_[c]) / half_span_[c];
  return u;
}

Mat RangeScaler::from_unit(const Mat& u) const {
  Mat x(u.rows(), u.cols());
  for (std::size_t r = 0; r < u.rows(); ++r)
    for (std::size_t c = 0; c < u.cols(); ++c) x(r, c) = center_[c] + half_span_[c] * u(r, c);
  return x;
}

Vec RangeScaler::delta_to_unit(const Vec& dx) const {
  Vec du(dx.size());
  for (std::size_t i = 0; i < dx.size(); ++i) du[i] = dx[i] / half_span_[i];
  return du;
}

Vec RangeScaler::delta_from_unit(const Vec& du) const {
  Vec dx(du.size());
  for (std::size_t i = 0; i < du.size(); ++i) dx[i] = du[i] * half_span_[i];
  return dx;
}

void ZScoreNormalizer::fit(const Mat& samples) {
  if (samples.rows() == 0) throw std::invalid_argument("ZScoreNormalizer::fit: empty sample set");
  const std::size_t n = samples.rows(), d = samples.cols();
  mean_.assign(d, 0.0);
  std_.assign(d, 0.0);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < d; ++c) mean_[c] += samples(r, c);
  for (auto& m : mean_) m /= static_cast<double>(n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < d; ++c) {
      const double dlt = samples(r, c) - mean_[c];
      std_[c] += dlt * dlt;
    }
  for (auto& s : std_) {
    s = std::sqrt(s / static_cast<double>(n));
    if (s < 1e-12) s = 1.0;  // constant column: pass through centered
  }
}

Mat ZScoreNormalizer::transform(const Mat& x) const {
  Mat z;
  transform_into(x, z);
  return z;
}

void ZScoreNormalizer::transform_into(const Mat& x, Mat& z) const {
  z.ensure_shape(x.rows(), x.cols());
  for (std::size_t r = 0; r < x.rows(); ++r)
    for (std::size_t c = 0; c < x.cols(); ++c) z(r, c) = (x(r, c) - mean_[c]) / std_[c];
}

void ZScoreNormalizer::inverse_into(const Mat& z, Mat& x) const {
  x.ensure_shape(z.rows(), z.cols());
  for (std::size_t r = 0; r < z.rows(); ++r)
    for (std::size_t c = 0; c < z.cols(); ++c) x(r, c) = z(r, c) * std_[c] + mean_[c];
}

Vec ZScoreNormalizer::transform(const Vec& x) const {
  Vec z(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) z[i] = (x[i] - mean_[i]) / std_[i];
  return z;
}

Vec ZScoreNormalizer::inverse(const Vec& z) const {
  Vec x(z.size());
  for (std::size_t i = 0; i < z.size(); ++i) x[i] = z[i] * std_[i] + mean_[i];
  return x;
}

Vec ZScoreNormalizer::gradient_to_raw(const Vec& dz) const {
  Vec dx(dz.size());
  for (std::size_t i = 0; i < dz.size(); ++i) dx[i] = dz[i] / std_[i];
  return dx;
}

}  // namespace maopt::nn
