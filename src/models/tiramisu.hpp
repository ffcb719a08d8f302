#pragma once

#include <array>
#include <memory>
#include <vector>

#include "nn/activation.hpp"
#include "nn/combine.hpp"
#include "nn/conv.hpp"
#include "nn/norm.hpp"
#include "nn/pool.hpp"
#include "nn/sequential.hpp"

namespace exaclim {

/// One dense block of the Tiramisu (FC-DenseNet) architecture: `layers`
/// units of BN-ReLU-Conv(growth)-Dropout, where unit i consumes the
/// channel-concatenation of the block input and all previous unit outputs.
/// Where ResNet adds, Tiramisu concatenates (Sec III-A1).
class DenseBlock : public Layer {
 public:
  struct Options {
    std::int64_t in_c = 0;
    std::int64_t growth = 16;
    std::int64_t layers = 2;
    std::int64_t kernel = 3;
    float dropout = 0.0f;
    /// Down-path blocks concatenate their input into the output; up-path
    /// blocks emit only the newly produced features to bound growth.
    bool include_input = true;
  };

  DenseBlock(std::string name, const Options& opts, Rng& rng);

  Tensor Forward(const Tensor& input, bool train) override;
  Tensor Backward(const Tensor& grad_output) override;
  TensorShape OutputShape(const TensorShape& input) const override;
  std::vector<Layer*> Children() override { return ChildList(units_); }

  std::int64_t out_channels() const {
    return (opts_.include_input ? opts_.in_c : 0) +
           opts_.layers * opts_.growth;
  }

 private:
  Options opts_;
  std::vector<std::unique_ptr<Sequential>> units_;
  std::vector<std::int64_t> feat_channels_;  // input + per-unit growth
  TensorShape input_shape_;

  // Per-step scratch, sized once in the constructor and reused every
  // Forward/Backward so the steady-state step performs no heap
  // allocation (DESIGN §12): the tensors recycle their pooled buffers
  // via SplitChannelsInto / copy-assign capacity reuse.
  std::vector<Tensor> feats_;               // input + per-unit outputs
  std::vector<const Tensor*> concat_ptrs_;  // ConcatChannels argument
  std::vector<Tensor> feat_grads_;          // per-feature gradients
  std::vector<Tensor> split_scratch_;       // unit input-grad split parts
};

/// Tiramisu transition down: BN-ReLU-1×1 conv-dropout-2×2 max pool.
class TransitionDown : public Sequential {
 public:
  TransitionDown(std::string name, std::int64_t channels, float dropout,
                 Rng& rng);
};

/// Tiramisu segmentation network (Sec III-A1, V-B5).
///
/// The architecture is fully parameterised so that both paper variants
/// (growth 16 / 3×3 kernels and the modified growth 32 / 5×5 with halved
/// block depths) and CPU-runnable downscaled versions share one
/// implementation. Structure: initial conv; down path of dense blocks
/// with transition-downs, keeping skip tensors; a bottleneck dense block;
/// an up path of transition-up deconvs, skip concatenation and dense
/// blocks; a final 1×1 classification conv at input resolution.
class Tiramisu : public Layer {
 public:
  struct Config {
    std::int64_t in_channels = 16;
    std::int64_t num_classes = 3;
    std::int64_t first_features = 48;
    std::int64_t growth_rate = 32;
    std::int64_t kernel = 5;
    std::vector<std::int64_t> down_layers = {1, 1, 1, 2};
    std::int64_t bottleneck_layers = 3;
    float dropout = 0.2f;

    /// Paper's original design: growth 16, 3×3 kernels, blocks 2,2,2,4,5.
    static Config Original();
    /// Paper's modified design (Sec V-B5): growth 32, 5×5, halved depth.
    static Config Modified();
    /// Small variant for CPU training experiments.
    static Config Downscaled(std::int64_t in_channels = 8);
  };

  Tiramisu(const Config& config, Rng& rng);

  Tensor Forward(const Tensor& input, bool train) override;
  Tensor Backward(const Tensor& grad_output) override;
  TensorShape OutputShape(const TensorShape& input) const override;
  /// Params() order, not forward order: the exchanger's buckets, LARC and
  /// checkpoints depend on it.
  std::vector<Layer*> Children() override {
    return ChildList(first_conv_, down_blocks_, downs_, bottleneck_, ups_,
                     up_blocks_, final_conv_);
  }

  const Config& config() const { return config_; }
  /// Input H/W must be divisible by this (2^len(down_layers)).
  std::int64_t SpatialDivisor() const;

 private:
  Config config_;
  std::unique_ptr<Conv2d> first_conv_;
  std::vector<std::unique_ptr<DenseBlock>> down_blocks_;
  std::vector<std::unique_ptr<TransitionDown>> downs_;
  std::unique_ptr<DenseBlock> bottleneck_;
  std::vector<std::unique_ptr<ConvTranspose2d>> ups_;
  std::vector<std::unique_ptr<DenseBlock>> up_blocks_;
  std::unique_ptr<Conv2d> final_conv_;

  std::vector<std::int64_t> skip_channels_;
  std::vector<Tensor> skips_;  // saved during Forward for the up path

  // Per-step scratch (see DenseBlock): reused across Backward calls.
  std::vector<Tensor> skip_grads_;
  std::array<Tensor, 2> up_split_;  // [new-features grad, skip grad]
};

}  // namespace exaclim
