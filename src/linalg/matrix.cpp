#include "linalg/matrix.hpp"

#include <stdexcept>

namespace maopt::linalg {

double dot(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: dimension mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

template class Matrix<double>;
template class Matrix<std::complex<double>>;

}  // namespace maopt::linalg
