// The dense network of the paper's actors and critic (Section III-A, Eq.
// 4-6): Linear, ReLU, ..., Linear, then tanh for an actor. Both use two
// hidden layers of 100 units.
//
// The net runs in fixed row chunks and trains in fixed parameter chunks, so
// that a PhaseRunner can spread one minibatch step over several threads and
// still produce the bits of one whole-batch pass (DESIGN.md §12,
// "Partitioned critic round" and "Lockstep actor round"). It owns every
// layer's W, b and their gradients, and the packed Wᵀ each input-gradient
// GEMM reads. The per-row state of a pass, every layer's output and loss
// gradient, lives in a Rows the caller owns, so one net can serve several
// row sets (the frozen critic serves every actor's rows). Row work touches
// only its own rows, and parameter work only its own parameter rows, so
// disjoint chunks may run concurrently.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "nn/adam.hpp"

namespace maopt::nn {

class Mlp {
 public:
  /// Rows per row chunk. A multiple of 4, so every chunk starts where a
  /// whole-batch GEMM starts a row pair (gemm_nn) or a 4-row block
  /// (gemm_nt).
  static constexpr std::size_t kRowsPerChunk = 16;

  /// Layer by layer, Xavier-uniform weights (in * out draws from `rng`) and
  /// zero biases. Hidden layers are ReLU; the output is linear, or tanh when
  /// `tanh_output`.
  Mlp(std::size_t in, const std::vector<std::size_t>& hidden, std::size_t out, Rng& rng,
      bool tanh_output);

  /// Per-row state of a pass: each layer's output (ReLU, or the top tanh,
  /// applied in place) and dL/d(pre-activation output).
  struct Rows {
    std::vector<Mat> act, grad;
    Mat& output() { return act.back(); }
    Mat& output_grad() { return grad.back(); }
  };

  /// Sizes `rows` for `n` rows of this net (contents unspecified; capacity
  /// is reused).
  void set_rows(Rows& rows, std::size_t n) const;
  /// Packs Wᵀ of every layer above the bottom one, for backward(). The
  /// parameter chunks keep it current as W changes.
  void pack();
  /// Packs columns [c0, c1) of the bottom layer's Wᵀ, for input_gradient().
  void pack_input_columns(std::size_t c0, std::size_t c1);

  /// Forward pass of every row of `x` (batch x input_size), in one GEMM per
  /// layer; sizes `rows` and returns its output.
  const Mat& forward(Rows& rows, const Mat& x) const;
  /// Forward pass of rows [r0, r0 + nr); `x` points at row r0 of the
  /// (rows x input_size) input.
  void forward(Rows& rows, const double* x, std::size_t r0, std::size_t nr) const;
  /// Chains the loss gradient of rows [r0, r0 + nr) from the output down to
  /// the bottom layer's output: the caller writes dL/d(output) into
  /// rows.output_grad() first; the tanh derivative, gemm_nt_packed and the
  /// ReLU masks follow.
  void backward(Rows& rows, std::size_t r0, std::size_t nr) const;
  /// dL/d(input columns [c0, c1)) of rows [r0, r0 + nr) into `dx` (nr rows
  /// of c1 - c0, row-major), after backward() of those rows.
  void input_gradient(const Rows& rows, std::size_t r0, std::size_t nr, double* dx) const;

  /// Number of parameter chunks: about 4096 parameters each, in whole rows
  /// of one layer's W, the bias counting as one extra row.
  std::size_t num_param_chunks() const;
  /// One parameter chunk over every row of `rows`: dW rows += Xᵀ dY, db,
  /// the Adam update of exactly those elements, and the matching columns of
  /// the packed Wᵀ. `x` is the (rows x input_size) input of the forward
  /// pass.
  void params_chunk(std::size_t chunk, const Rows& rows, const double* x, Adam& adam,
                    const AdamStep& step);

  /// W0, b0, W1, b1, ... with their gradients; W is (in x out) row-major.
  /// The pointers stay valid when the net is moved.
  std::vector<ParamRef> params();

  std::size_t input_size() const { return layers_.front().in; }
  std::size_t output_size() const { return layers_.back().out; }
  std::size_t num_parameters() const;

 private:
  struct Dense {
    std::size_t in = 0, out = 0;
    Vec w, b, dw, db;
    Mat packed;  ///< Wᵀ (out x in) for the input-gradient GEMM
  };

  std::vector<Dense> layers_;
  bool tanh_output_;
  Mat input_packed_;  ///< columns [c0_, c1_) of the bottom layer's Wᵀ
  std::size_t c0_ = 0, c1_ = 0;
};

}  // namespace maopt::nn
