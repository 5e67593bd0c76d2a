// Dense row-major matrix / vector types shared by the neural-network stack
// (real), the MNA circuit solver (real for DC/transient, complex for AC),
// and the Gaussian-process baseline (real, SPD systems).
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace maopt::linalg {

using Vec = std::vector<double>;
using CVec = std::vector<std::complex<double>>;

template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  Matrix(std::size_t rows, std::size_t cols, std::initializer_list<T> values)
      : rows_(rows), cols_(cols), data_(values) {
    MAOPT_CHECK(data_.size() == rows * cols, "Matrix: initializer size != rows * cols");
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  T& operator()(std::size_t r, std::size_t c) {
    MAOPT_DCHECK(r < rows_ && c < cols_, "Matrix: index out of range");
    return data_[r * cols_ + c];
  }
  const T& operator()(std::size_t r, std::size_t c) const {
    MAOPT_DCHECK(r < rows_ && c < cols_, "Matrix: index out of range");
    return data_[r * cols_ + c];
  }

  /// Bounds-checked element access: like operator() but the range check is
  /// compiled into every build flavor (throws ContractViolation). Use on
  /// cold paths and anywhere indices come from external input.
  T& at(std::size_t r, std::size_t c) {
    MAOPT_CHECK(r < rows_ && c < cols_, "Matrix::at: index out of range");
    return data_[r * cols_ + c];
  }
  const T& at(std::size_t r, std::size_t c) const {
    MAOPT_CHECK(r < rows_ && c < cols_, "Matrix::at: index out of range");
    return data_[r * cols_ + c];
  }

  std::span<T> row(std::size_t r) {
    MAOPT_DCHECK(r < rows_, "Matrix::row: index out of range");
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const T> row(std::size_t r) const {
    MAOPT_DCHECK(r < rows_, "Matrix::row: index out of range");
    return {data_.data() + r * cols_, cols_};
  }

  std::vector<T>& data() { return data_; }
  const std::vector<T>& data() const { return data_; }

  void fill(T value) { data_.assign(data_.size(), value); }
  void resize(std::size_t rows, std::size_t cols, T fill = T{}) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, fill);
    ++generation_;
  }
  /// Reshape without clearing retained elements; reuses capacity, so a
  /// buffer reshaped to the same (or smaller) size never reallocates.
  /// Contents are unspecified — callers must overwrite every entry.
  void ensure_shape(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
    ++generation_;
  }

  /// Buffer-reuse generation: bumped by every reshape (ensure_shape /
  /// resize), i.e. whenever previously read contents become unspecified.
  /// Consumers that borrow a matrix across calls (Linear's forward input)
  /// snapshot this and verify it unchanged when they finally read — the
  /// machine-checked form of the "keep the input alive until backward"
  /// lifetime contract in nn/layer.hpp.
  std::uint64_t generation() const { return generation_; }

  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  Matrix transposed() const {
    Matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
    return t;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
  std::uint64_t generation_ = 0;
};

using Mat = Matrix<double>;
using CMat = Matrix<std::complex<double>>;

// --- Vector helpers (double) ---
double dot(std::span<const double> a, std::span<const double> b);
double norm2(std::span<const double> a);
double norm_inf(std::span<const double> a);
/// a += s * b
void axpy(double s, std::span<const double> b, std::span<double> a);

extern template class Matrix<double>;
extern template class Matrix<std::complex<double>>;

}  // namespace maopt::linalg
