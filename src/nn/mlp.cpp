#include "nn/mlp.hpp"

#include <iterator>
#include <utility>


namespace maopt::nn {

Mlp::Mlp(std::size_t in, const std::vector<std::size_t>& hidden, std::size_t out, Rng& rng,
         Activation hidden_act, bool output_tanh) {
  std::size_t prev = in;
  for (const std::size_t h : hidden) {
    layers_.push_back(std::make_unique<Linear>(prev, h, rng));
    if (hidden_act == Activation::Tanh)
      layers_.push_back(std::make_unique<Tanh>(h));
    else
      layers_.push_back(std::make_unique<Relu>(h));
    prev = h;
  }
  layers_.push_back(std::make_unique<Linear>(prev, out, rng));
  if (output_tanh) layers_.push_back(std::make_unique<Tanh>(out));
}

Mlp::Mlp(const Mlp& other) {
  layers_.reserve(other.layers_.size());
  for (const auto& layer : other.layers_) layers_.push_back(layer->clone());
}

Mlp& Mlp::operator=(const Mlp& other) {
  if (this != &other) {
    layers_.clear();
    layers_.reserve(other.layers_.size());
    for (const auto& layer : other.layers_) layers_.push_back(layer->clone());
  }
  return *this;
}

Mlp Mlp::make_paper_net(std::size_t in, std::size_t out, Rng& rng, bool output_tanh) {
  return Mlp(in, {100, 100}, out, rng, Activation::Relu, output_tanh);
}

const Mat& Mlp::forward(const Mat& x) {
  const Mat* h = &x;
  for (auto& layer : layers_) h = &layer->forward(*h);
  return *h;
}

void Mlp::backward_params(const Mat& dy) {
  const Mat* g = &dy;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    if (std::next(it) == layers_.rend()) {
      (*it)->param_gradient(*g);  // bottom layer: dL/dX is never read
      return;
    }
    g = &(*it)->backward(*g);
  }
}

const Mat& Mlp::input_gradient(const Mat& dy) {
  // Each layer's input_gradient skips parameter-gradient accumulation, so no
  // grad snapshot/restore is needed (Linear also skips the dW/db GEMMs).
  const Mat* g = &dy;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = &(*it)->input_gradient(*g);
  return *g;
}

std::vector<ParamRef> Mlp::params() {
  std::vector<ParamRef> out;
  for (auto& layer : layers_)
    for (const auto& p : layer->params()) out.push_back(p);
  return out;
}

std::vector<ConstParamRef> Mlp::params() const {
  std::vector<ConstParamRef> out;
  for (const auto& layer : layers_)
    for (const auto& p : std::as_const(*layer).params()) out.push_back(p);
  return out;
}

std::size_t Mlp::num_parameters() const {
  std::size_t n = 0;
  for (const auto& p : params()) n += p.value->size();
  return n;
}

}  // namespace maopt::nn
