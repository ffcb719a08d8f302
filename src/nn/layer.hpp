#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/cast.hpp"
#include "tensor/tensor.hpp"

namespace exaclim {

/// A trainable parameter: value plus accumulated gradient. Optimizers and
/// the data-parallel aggregation layer (hvd) operate on flat lists of
/// these, mirroring how Horovod hooks TensorFlow's variable list.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;

  Param(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)), grad(value.shape()) {}

  std::int64_t NumElements() const { return value.NumElements(); }
};

class Layer;

/// Observer of backward-pass progress: containers (Sequential, the model
/// backward paths) announce each child layer right after its Backward
/// returns, at which point that child's Param::grads are final for the
/// step — the hook that lets the gradient exchange overlap with the rest
/// of backprop (DESIGN §14). Announcements may repeat or cover layers
/// without params; listeners dedup.
class GradReadyListener {
 public:
  virtual ~GradReadyListener() = default;
  virtual void OnGradsReady(Layer& layer) = 0;
};

/// Base class for network layers.
///
/// Layers cache whatever forward-pass state their backward pass needs, so
/// the usage contract is: Forward, then at most one Backward for that
/// Forward. Gradients accumulate into Param::grad (callers zero them
/// between steps). SetPrecision(kFP16) makes the layer quantise its output
/// activations and use binary16-rounded weights — the emulation point for
/// the paper's mixed-precision runs (master weights stay FP32).
class Layer {
 public:
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  /// Computes the layer output; `train` enables dropout/batch-stat updates.
  virtual Tensor Forward(const Tensor& input, bool train) = 0;

  /// Propagates the loss gradient, accumulating parameter gradients.
  virtual Tensor Backward(const Tensor& grad_output) = 0;

  /// Output shape for a given input shape (no compute) — used by model
  /// assembly checks.
  virtual TensorShape OutputShape(const TensorShape& input) const = 0;

  /// Direct sublayers, in Params() order — the one place a container
  /// names its children (DESIGN §5). Params(), StateTensors() and
  /// SetPrecision() walk it; leaves keep the empty default.
  virtual std::vector<Layer*> Children() { return {}; }

  /// Trainable parameters. The default concatenates the children's lists
  /// in Children() order; leaves with weights override it.
  virtual std::vector<Param*> Params() {
    std::vector<Param*> params;
    for (Layer* child : Children()) {
      for (Param* p : child->Params()) params.push_back(p);
    }
    return params;
  }

  /// Non-trainable state that must survive checkpoint/resume — e.g.
  /// batch-norm running statistics. Named like params but outside the
  /// optimizer and the gradient exchange; checkpoints store them as
  /// "__state__<name>" datasets. Walks Children() like Params().
  struct StateTensor {
    std::string name;
    Tensor* tensor;
  };
  virtual std::vector<StateTensor> StateTensors() {
    std::vector<StateTensor> state;
    for (Layer* child : Children()) {
      for (StateTensor& s : child->StateTensors()) {
        state.push_back(std::move(s));
      }
    }
    return state;
  }

  const std::string& name() const { return name_; }

  /// Sets the precision of this layer and every descendant.
  void SetPrecision(Precision p) {
    precision_ = p;
    for (Layer* child : Children()) child->SetPrecision(p);
  }
  Precision precision() const { return precision_; }

  /// Installs the backward-progress observer on this layer (the trainer
  /// sets it on the model root only; nested containers keep nullptr and
  /// the root announces their children transitively).
  void SetGradReadyListener(GradReadyListener* listener) {
    grad_listener_ = listener;
  }

 protected:
  explicit Layer(std::string name) : name_(std::move(name)) {}

  /// Applies FP16 storage emulation to an activation if enabled.
  void MaybeQuantise(Tensor& t) const {
    if (precision_ == Precision::kFP16) RoundTripHalf(t);
  }

  /// Announces that `child`'s gradients are final for this step. No-op
  /// without a listener, so un-instrumented call paths cost one branch.
  void NotifyGradsReady(Layer& child) const {
    if (grad_listener_ != nullptr) grad_listener_->OnGradsReady(child);
  }

  /// The installed listener (for containers that forward it to nested
  /// instrumented children, e.g. DeepLab handing its encoder over so the
  /// encoder announces per-block instead of as one giant layer).
  GradReadyListener* grad_ready_listener() const { return grad_listener_; }

 private:
  std::string name_;
  Precision precision_ = Precision::kFP32;
  GradReadyListener* grad_listener_ = nullptr;
};

using LayerPtr = std::unique_ptr<Layer>;

namespace detail {
template <typename L>
void AppendChild(std::vector<Layer*>& out, const std::unique_ptr<L>& child) {
  if (child) out.push_back(child.get());
}
template <typename L>
void AppendChild(std::vector<Layer*>& out,
                 const std::vector<std::unique_ptr<L>>& children) {
  for (const auto& child : children) AppendChild(out, child);
}
}  // namespace detail

/// Builds a Children() list from owned members — single pointers (null =
/// absent, e.g. an identity shortcut) and vectors of them — in argument
/// order.
template <typename... Owners>
std::vector<Layer*> ChildList(const Owners&... owners) {
  std::vector<Layer*> out;
  (detail::AppendChild(out, owners), ...);
  return out;
}

/// Number of trainable scalars in a layer tree.
inline std::int64_t ParameterCount(Layer& layer) {
  std::int64_t count = 0;
  for (const Param* p : layer.Params()) count += p->NumElements();
  return count;
}

}  // namespace exaclim
