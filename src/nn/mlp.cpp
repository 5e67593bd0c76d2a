#include "nn/mlp.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/thread_annotations.hpp"
#include "linalg/gemm.hpp"

namespace maopt::nn {

namespace {

// Parameter chunks hold about this many parameters, in whole rows of W
// (plus the bias as one extra row). Chunks are large enough that each one's
// compute outweighs pulling the layer inputs and dY into its core's cache.
// The row count is even, so every chunk starts where the whole-matrix
// gemm_tn starts a row pair.
constexpr std::size_t kParamsPerChunk = 4096;

std::size_t ceil_div(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

std::size_t param_rows_per_chunk(std::size_t out) {
  return std::max<std::size_t>(2, kParamsPerChunk / out / 2 * 2);
}

/// Wᵀ columns [c0, c1) of the (in x out) row-major W into `packed`
/// ((out x (c1 - c0)) row-major).
void pack_columns(const Vec& w, std::size_t out, std::size_t c0, std::size_t c1, Mat& packed) {
  for (std::size_t j = c0; j < c1; ++j)
    for (std::size_t p = 0; p < out; ++p) packed(p, j - c0) = w[j * out + p];
}

}  // namespace

Mlp::Mlp(std::size_t in, const std::vector<std::size_t>& hidden, std::size_t out, Rng& rng,
         bool tanh_output)
    : tanh_output_(tanh_output) {
  std::vector<std::size_t> widths{in};
  widths.insert(widths.end(), hidden.begin(), hidden.end());
  widths.push_back(out);
  layers_.resize(widths.size() - 1);
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    Dense& layer = layers_[l];
    layer.in = widths[l];
    layer.out = widths[l + 1];
    MAOPT_CHECK(layer.in > 0 && layer.out > 0, "Mlp: zero-sized layer");
    const double limit = std::sqrt(6.0 / static_cast<double>(layer.in + layer.out));
    layer.w.resize(layer.in * layer.out);
    for (double& w : layer.w) w = rng.uniform(-limit, limit);
    layer.b.assign(layer.out, 0.0);
    layer.dw.assign(layer.in * layer.out, 0.0);
    layer.db.assign(layer.out, 0.0);
  }
}

void Mlp::set_rows(Rows& rows, std::size_t n) const {
  rows.act.resize(layers_.size());
  rows.grad.resize(layers_.size());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    rows.act[l].ensure_shape(n, layers_[l].out);
    rows.grad[l].ensure_shape(n, layers_[l].out);
  }
}

void Mlp::pack() {
  for (std::size_t l = 1; l < layers_.size(); ++l) {
    Dense& layer = layers_[l];
    layer.packed.ensure_shape(layer.out, layer.in);
    pack_columns(layer.w, layer.out, 0, layer.in, layer.packed);
  }
}

void Mlp::pack_input_columns(std::size_t c0, std::size_t c1) {
  const Dense& bottom = layers_.front();
  MAOPT_CHECK(c0 < c1 && c1 <= bottom.in, "Mlp::pack_input_columns: bad column range");
  c0_ = c0;
  c1_ = c1;
  input_packed_.ensure_shape(bottom.out, c1 - c0);
  pack_columns(bottom.w, bottom.out, c0, c1, input_packed_);
}

const Mat& Mlp::forward(Rows& rows, const Mat& x) const {
  MAOPT_CHECK(x.cols() == input_size(), "Mlp::forward: feature size mismatch");
  set_rows(rows, x.rows());
  forward(rows, x.data().data(), 0, x.rows());
  return rows.output();
}

MAOPT_HOT void Mlp::forward(Rows& rows, const double* x, std::size_t r0, std::size_t nr) const {
  const std::size_t top = layers_.size() - 1;
  for (std::size_t l = 0; l <= top; ++l) {
    const Dense& layer = layers_[l];
    double* y = rows.act[l].data().data() + r0 * layer.out;
    for (std::size_t r = 0; r < nr; ++r)
      std::copy(layer.b.begin(), layer.b.end(), y + r * layer.out);
    linalg::gemm_nn(nr, layer.out, layer.in, x, layer.w.data(), y);
    if (l < top) {
      for (std::size_t i = 0; i < nr * layer.out; ++i) y[i] = y[i] > 0.0 ? y[i] : 0.0;
    } else if (tanh_output_) {
      for (std::size_t i = 0; i < nr * layer.out; ++i) y[i] = std::tanh(y[i]);
    }
    x = y;
  }
}

MAOPT_HOT void Mlp::backward(Rows& rows, std::size_t r0, std::size_t nr) const {
  const std::size_t top = layers_.size() - 1;
  if (tanh_output_) {
    // d tanh(z)/dz = 1 - y^2, from the output itself.
    const std::size_t out = layers_[top].out;
    const double* y = rows.act[top].data().data() + r0 * out;
    double* g = rows.grad[top].data().data() + r0 * out;
    for (std::size_t i = 0; i < nr * out; ++i) g[i] = g[i] * (1.0 - y[i] * y[i]);
  }
  for (std::size_t l = top; l > 0; --l) {
    const Dense& layer = layers_[l];
    double* dx = rows.grad[l - 1].data().data() + r0 * layer.in;
    std::fill(dx, dx + nr * layer.in, 0.0);
    linalg::gemm_nt_packed(nr, layer.in, layer.out, rows.grad[l].data().data() + r0 * layer.out,
                           layer.packed.data().data(), dx);
    // ReLU backward: the activation is positive exactly where its input was.
    const double* h = rows.act[l - 1].data().data() + r0 * layer.in;
    for (std::size_t i = 0; i < nr * layer.in; ++i) dx[i] = h[i] > 0.0 ? dx[i] : 0.0;
  }
}

MAOPT_HOT void Mlp::input_gradient(const Rows& rows, std::size_t r0, std::size_t nr,
                                   double* dx) const {
  // gemm_nt rounds every element the same wherever its column sits, so
  // forming only columns [c0_, c1_) changes no bits.
  const std::size_t out = layers_.front().out;
  const std::size_t n = c1_ - c0_;
  std::fill(dx, dx + nr * n, 0.0);
  linalg::gemm_nt_packed(nr, n, out, rows.grad.front().data().data() + r0 * out,
                         input_packed_.data().data(), dx);
}

std::size_t Mlp::num_param_chunks() const {
  std::size_t n = 0;
  for (const Dense& layer : layers_) n += ceil_div(layer.in + 1, param_rows_per_chunk(layer.out));
  return n;
}

MAOPT_HOT void Mlp::params_chunk(std::size_t chunk, const Rows& rows, const double* x, Adam& adam,
                                 const AdamStep& step) {
  // One row block of one layer's parameters, W's rows 0..in-1 then the bias
  // as row `in`.
  std::size_t l = 0;
  for (;; ++l) {
    const std::size_t n = ceil_div(layers_[l].in + 1, param_rows_per_chunk(layers_[l].out));
    if (chunk < n) break;
    chunk -= n;
  }
  Dense& layer = layers_[l];
  const std::size_t per_chunk = param_rows_per_chunk(layer.out);
  const std::size_t lo = chunk * per_chunk;
  const std::size_t hi = std::min(layer.in + 1, lo + per_chunk);
  const std::size_t w_hi = std::min(hi, layer.in);
  const std::size_t batch = rows.grad[l].rows();
  const double* dy = rows.grad[l].data().data();
  if (lo < w_hi) {
    // dW rows [lo, w_hi) += Xᵀ dY, X's columns [lo, w_hi) in place. The
    // gradient is zero here: the previous update cleared it.
    const double* in = l == 0 ? x : rows.act[l - 1].data().data();
    linalg::gemm_tn(w_hi - lo, layer.out, batch, in + lo, layer.in, dy,
                    layer.dw.data() + lo * layer.out);
    adam.update(step, 2 * l, lo * layer.out, w_hi * layer.out);
    if (l > 0)
      for (std::size_t j = lo; j < w_hi; ++j)
        for (std::size_t p = 0; p < layer.out; ++p) layer.packed(p, j) = layer.w[j * layer.out + p];
  }
  if (hi > layer.in) {
    for (std::size_t r = 0; r < batch; ++r)
      for (std::size_t j = 0; j < layer.out; ++j) layer.db[j] += dy[r * layer.out + j];
    adam.update(step, 2 * l + 1, 0, layer.out);
  }
}

std::vector<ParamRef> Mlp::params() {
  std::vector<ParamRef> out;
  for (Dense& layer : layers_) {
    out.push_back({&layer.w, &layer.dw});
    out.push_back({&layer.b, &layer.db});
  }
  return out;
}

std::size_t Mlp::num_parameters() const {
  std::size_t n = 0;
  for (const Dense& layer : layers_) n += layer.w.size() + layer.b.size();
  return n;
}

}  // namespace maopt::nn
