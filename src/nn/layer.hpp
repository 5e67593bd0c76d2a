// Feed-forward layers with explicit forward/backward passes.
//
// The MA-Opt actor update is a deterministic-policy-gradient-style chain:
//   dL/dtheta_actor = dg/dQ * dQ/da * da/dtheta_actor,
// which requires (1) parameter gradients and (2) gradients with respect to
// the *input* of a network (`backward` returns dL/dX for exactly this).
// Batches are row-major: X is (batch x features).
//
// forward/backward return references into the layer's Workspace: buffers are
// pre-sized once and reused across the thousands of Adam steps per run, so
// the steady-state training loop never touches the allocator. The returned
// matrix stays valid until the same layer's next forward/backward call; copy
// it if you need it longer. Layers borrow (not copy) the forward input, so
// the matrix passed to forward() must stay alive — and keep its contents —
// until the matching backward-family call completes. Checked builds
// (MAOPT_CHECKED / Debug) enforce this with a borrow guard: the layer
// snapshots the input's Matrix::generation() at forward() and aborts if the
// buffer was reshaped before backward read it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "nn/workspace.hpp"

namespace maopt::nn {

using linalg::Mat;
using linalg::Vec;

/// A (value, gradient) pair owned by a layer; optimizers mutate `value` and
/// read/zero `grad`.
struct ParamRef {
  Vec* value;
  Vec* grad;
};

/// Read-only view of a layer's parameters — what const inspection paths
/// (parameter counting, serialization probes) get from params() const.
struct ConstParamRef {
  const Vec* value;
  const Vec* grad;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output; caches whatever backward() needs.
  virtual const Mat& forward(const Mat& x) = 0;

  /// Given dL/dY, accumulates parameter gradients and returns dL/dX.
  /// Must be called after forward() with a matching batch.
  virtual const Mat& backward(const Mat& dy) = 0;

  /// dL/dX WITHOUT touching parameter gradients; same contract as backward().
  /// Stateless layers share the backward() implementation.
  virtual const Mat& input_gradient(const Mat& dy) { return backward(dy); }

  /// Parameter gradients WITHOUT producing dL/dX — the cheaper backward for
  /// the bottom layer of a stack, where the input gradient is discarded.
  virtual void param_gradient(const Mat& dy) { backward(dy); }

  /// Parameter (value, grad) pairs; empty for stateless layers.
  virtual std::vector<ParamRef> params() { return {}; }

  /// Read-only parameter views for const inspection; empty for stateless
  /// layers. Overridden together with the mutable overload.
  virtual std::vector<ConstParamRef> params() const { return {}; }

  /// Deep copy (weights copied, gradients and caches reset); backs Mlp's
  /// copy constructor.
  virtual std::unique_ptr<Layer> clone() const = 0;

  virtual std::size_t input_size() const = 0;
  virtual std::size_t output_size() const = 0;

 protected:
  // Workspace slot ids shared by all layer types.
  static constexpr std::size_t kFwdSlot = 0;
  static constexpr std::size_t kBwdSlot = 1;

  Workspace ws_;
};

/// Fully connected layer: Y = X W + 1 b^T, W is (in x out).
class Linear final : public Layer {
 public:
  /// Xavier-uniform initialization from `rng`.
  Linear(std::size_t in, std::size_t out, Rng& rng);

  const Mat& forward(const Mat& x) override;
  const Mat& backward(const Mat& dy) override;
  const Mat& input_gradient(const Mat& dy) override;
  void param_gradient(const Mat& dy) override;
  std::vector<ParamRef> params() override;
  std::vector<ConstParamRef> params() const override;
  std::unique_ptr<Layer> clone() const override;

  std::size_t input_size() const override { return in_; }
  std::size_t output_size() const override { return out_; }

  /// Row-major (in x out) weight access for tests.
  Vec& weights() { return w_; }
  Vec& bias() { return b_; }

 private:
  const Mat& input_gradient_into(const Mat& dy);
  void check_backward_input(const Mat& dy, const char* who) const;

  // W^T scratch for gemm_nt's packed operand.
  static constexpr std::size_t kPackSlot = 2;

  std::size_t in_;
  std::size_t out_;
  Vec w_, b_;
  Vec dw_, db_;
  // Borrowed view of the last forward() input, consumed by the backward
  // family. Valid because every caller keeps the input alive until after
  // backward: inside an Mlp each layer's input is the previous layer's
  // workspace buffer (stable until that layer's next forward), and the
  // bottom layer's input is the caller's batch matrix. `last_x_gen_` is the
  // borrow guard: checked builds verify the buffer was not reshaped between
  // forward() and the backward-family read.
  const Mat* last_x_ = nullptr;
  std::uint64_t last_x_gen_ = 0;
};

/// Elementwise tanh.
class Tanh final : public Layer {
 public:
  explicit Tanh(std::size_t size) : size_(size) {}
  const Mat& forward(const Mat& x) override;
  const Mat& backward(const Mat& dy) override;
  std::unique_ptr<Layer> clone() const override { return std::make_unique<Tanh>(size_); }
  std::size_t input_size() const override { return size_; }
  std::size_t output_size() const override { return size_; }

 private:
  std::size_t size_;
};

/// Elementwise max(0, x).
class Relu final : public Layer {
 public:
  explicit Relu(std::size_t size) : size_(size) {}
  const Mat& forward(const Mat& x) override;
  const Mat& backward(const Mat& dy) override;
  std::unique_ptr<Layer> clone() const override { return std::make_unique<Relu>(size_); }
  std::size_t input_size() const override { return size_; }
  std::size_t output_size() const override { return size_; }

 private:
  std::size_t size_;
};

}  // namespace maopt::nn
