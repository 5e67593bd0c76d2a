// Multi-layer perceptron built from Layer objects. The paper fixes the
// architecture for both actors and the critic to two hidden layers of 100
// units (Section III-A); Mlp::make_paper_net builds exactly that.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace maopt::nn {

enum class Activation { Tanh, Relu };

class Mlp {
 public:
  /// hidden activation applied after every hidden Linear; the output layer is
  /// linear (critic) or tanh (actor, chosen by `output_tanh`).
  Mlp(std::size_t in, const std::vector<std::size_t>& hidden, std::size_t out, Rng& rng,
      Activation hidden_act = Activation::Relu, bool output_tanh = false);

  Mlp(const Mlp& other);
  Mlp& operator=(const Mlp& other);
  Mlp(Mlp&&) = default;
  Mlp& operator=(Mlp&&) = default;

  /// The paper's configuration: 2 hidden layers x 100 nodes.
  static Mlp make_paper_net(std::size_t in, std::size_t out, Rng& rng, bool output_tanh);

  /// Returned references point into per-layer Workspace buffers reused
  /// across calls: valid until this network's next forward/backward-family
  /// call; copy the result to keep it longer.
  const Mat& forward(const Mat& x);
  /// Accumulates parameter grads only — the bottom layer skips its dL/dX
  /// GEMM, which training never reads.
  void backward_params(const Mat& dy);
  /// Input gradient WITHOUT touching parameter grads (used when the critic
  /// only serves as a differentiable surrogate during actor training).
  const Mat& input_gradient(const Mat& dy);

  std::vector<ParamRef> params();
  std::vector<ConstParamRef> params() const;

  std::size_t input_size() const { return layers_.front()->input_size(); }
  std::size_t output_size() const { return layers_.back()->output_size(); }
  std::size_t num_parameters() const;

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace maopt::nn
