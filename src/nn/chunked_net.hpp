// A dense ReLU network run in fixed row chunks and trained in fixed
// parameter chunks, so that a PhaseRunner can spread one minibatch step
// over several threads and still produce the bits of the whole-batch
// Mlp/Adam loop (DESIGN.md §12, "Partitioned critic round" and "Lockstep
// actor round"). The critic's training round and the actors' lockstep
// round share it.
//
// A ChunkedNet views the Linear parameters of an Mlp built as Linear, ReLU,
// ..., Linear (then Tanh when `tanh_output`) and owns the packed Wᵀ each
// input-gradient GEMM reads. The per-row state of a pass, every layer's
// output and loss gradient, lives in a Rows the caller owns, so one net can
// serve several row sets (the frozen critic serves every actor's rows).
// Row work touches only its own rows, and parameter work only its own
// parameter rows, so disjoint chunks may run concurrently.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/adam.hpp"
#include "nn/mlp.hpp"

namespace maopt::nn {

class ChunkedNet {
 public:
  /// Rows per row chunk. A multiple of 4, so every chunk starts where a
  /// whole-batch GEMM starts a row pair (gemm_nn) or a 4-row block
  /// (gemm_nt).
  static constexpr std::size_t kRowsPerChunk = 16;

  /// Views the parameters of `net` (W0, b0, W1, b1, ... — the order an Adam
  /// over net.params() indexes them in). `net` must outlive this view;
  /// moving it keeps the view valid.
  ChunkedNet(Mlp& net, bool tanh_output);

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

  std::size_t input_size() const { return layers_.front().in; }

 private:
  /// One Linear layer: W is (in x out) row-major.
  struct LayerView {
    std::size_t in = 0, out = 0;
    Vec *w = nullptr, *dw = nullptr, *b = nullptr, *db = nullptr;
    Mat packed;  ///< Wᵀ (out x in) for the input-gradient GEMM
  };

  std::vector<LayerView> layers_;
  bool tanh_output_;
  Mat input_packed_;  ///< columns [c0_, c1_) of the bottom layer's Wᵀ
  std::size_t c0_ = 0, c1_ = 0;
};

}  // namespace maopt::nn
