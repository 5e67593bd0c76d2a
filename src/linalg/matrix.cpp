#include "linalg/matrix.hpp"

#include <cmath>
#include <stdexcept>

namespace maopt::linalg {

double dot(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: dimension mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

double norm_inf(std::span<const double> a) {
  double m = 0.0;
  for (const double v : a) m = std::max(m, std::abs(v));
  return m;
}

void axpy(double s, std::span<const double> b, std::span<double> a) {
  if (a.size() != b.size()) throw std::invalid_argument("axpy: dimension mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += s * b[i];
}

template class Matrix<double>;
template class Matrix<std::complex<double>>;

}  // namespace maopt::linalg
