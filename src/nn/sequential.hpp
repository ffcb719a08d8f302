#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "nn/conv_engine.hpp"
#include "nn/fusion.hpp"
#include "nn/layer.hpp"

namespace exaclim {

/// Linear chain of layers. Forward caches nothing itself (each layer
/// caches its own state); Backward runs the chain in reverse.
class Sequential : public Layer {
 public:
  explicit Sequential(std::string name) : Layer(std::move(name)) {}

  /// Appends a layer, returning a typed reference for later access.
  template <typename L, typename... Args>
  L& Emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  void Append(LayerPtr layer) { layers_.push_back(std::move(layer)); }

  Tensor Forward(const Tensor& input, bool train) override {
    Tensor x = input;
    const bool fuse = ConvFusionEnabled();
    for (std::size_t i = 0; i < layers_.size();) {
      // Conv2d→BN(→ReLU) chains collapse into one fused pass (DESIGN
      // §15) — bit-identical output and backward caches, so Backward
      // below stays a plain reverse walk.
      const std::size_t fused = fuse ? FusableChainAt(layers_, i) : 0;
      if (fused >= 2) {
        x = ForwardFusedChain(layers_, i, fused, x, train);
        i += fused;
      } else {
        x = layers_[i]->Forward(x, train);
        ++i;
      }
    }
    return x;
  }

  Tensor Backward(const Tensor& grad_output) override {
    Tensor g = grad_output;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
      g = (*it)->Backward(g);
      // This child's param grads are final for the step — the overlap
      // hook (DESIGN §14). No-op without a listener.
      NotifyGradsReady(**it);
    }
    return g;
  }

  TensorShape OutputShape(const TensorShape& input) const override {
    TensorShape s = input;
    for (const auto& layer : layers_) s = layer->OutputShape(s);
    return s;
  }

  std::vector<Layer*> Children() override { return ChildList(layers_); }

  std::size_t size() const { return layers_.size(); }
  Layer& at(std::size_t i) { return *layers_.at(i); }

 private:
  std::vector<LayerPtr> layers_;
};

}  // namespace exaclim
