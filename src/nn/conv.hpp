#pragma once

#include <optional>
#include <vector>

#include "nn/conv_engine.hpp"
#include "nn/im2col.hpp"
#include "nn/layer.hpp"
#include "tensor/gemm_kernel.hpp"

namespace exaclim {

/// Kept only because perfbench/bench_main.cpp prints it ("auto").
enum class ConvAlgorithm { kAuto };
const char* ToString(ConvAlgorithm algo);
ConvAlgorithm DefaultConvAlgorithm();

/// Pointwise epilogue ops a fused chain folds into the convolution's
/// GEMM writeback (DESIGN §15). The conv's own bias is not listed here —
/// Conv2d folds it in by itself whenever the epilogue path is active.
/// bn_* are per-output-channel vectors (all set or all null) that must
/// stay alive across the call; relu_mask, when non-null, is the ReLU
/// layer's mask for the whole output tensor (layout == output, one byte
/// per element) and is filled from the pre-ReLU values; bn_norm, when
/// non-null, receives the normalised x_hat per element (BatchNorm2d's
/// backward cache, same layout as the output).
struct ConvFusedOps {
  const float* bn_mean = nullptr;
  const float* bn_inv_std = nullptr;
  const float* bn_gamma = nullptr;
  const float* bn_beta = nullptr;
  float* bn_norm = nullptr;
  bool relu = false;
  unsigned char* relu_mask = nullptr;

  bool Empty() const {
    return bn_mean == nullptr && !relu && relu_mask == nullptr;
  }
};

/// The data gradient of one convolution geometry without a grad-col
/// buffer (DESIGN §15): image[in_c, in_h, in_w] = Col2Im(W^T * grad),
/// computed by GemmPackedImplicitDataGrad one kernel-tap panel at a time.
/// Input pixels split into stride x stride phases (BuildDataGradPlan);
/// each phase is a stride-1 tap GEMM over its own pixel grid. At stride 1
/// the one phase is the image itself; otherwise each phase accumulates
/// in caller scratch and is copied into the image. Bit-identical to the
/// materialized grad-col GEMM followed by Col2Im.
class ConvDataGrad {
 public:
  /// Packs the per-tap A panels W_t^T [in_c, out_c] from the weight
  /// matrix w [out_c, in_c*k_h*k_w] (read-only afterwards, so shards
  /// share them) and rebuilds the phase plan when `g` changed. Storage
  /// is grow-only: a layer's steady-state geometry never reallocates.
  void Prepare(const ConvGeometry& g, std::int64_t out_c, const float* w);

  /// Floats of per-shard scratch Run needs: in_c times the largest phase
  /// grid at stride > 1, 0 at stride 1.
  std::int64_t ScratchElems() const { return scratch_elems_; }

  /// image (zeroed by the caller, [in_c, in_h, in_w]) receives the data
  /// gradient of grad [out_c, out_h, out_w]; scratch holds
  /// ScratchElems() floats private to the calling shard.
  void Run(const float* grad, float* image, float* scratch) const;

 private:
  ConvGeometry g_;
  std::int64_t out_c_ = 0;
  std::int64_t scratch_elems_ = 0;
  std::vector<PackedGemmA> packed_;  // W_t^T per tap, t = kh*k_w + kw
  std::vector<ConvPhase> phases_;
  std::vector<GemmConvTap> taps_;    // the plan's taps, phase by phase
};

/// 2-D convolution (NCHW) with stride, zero padding and dilation (atrous).
/// Weights are [out_c, in_c*k_h*k_w] with He initialisation, optional
/// bias.
///
/// Sec VI traces cuDNN running "all convolutions ... using either
/// implicit GEMMs or direct convolutions", picked by geometry. Here the
/// geometry picks too, and there is no other knob: a 1x1 conv with
/// stride 1, pad 0 and dilation 1 is a GEMM straight on the activation
/// map (the map already is the patch matrix), every other conv runs the
/// implicit GEMM, whose B panels the packed engine gathers from the
/// input with no col buffer (DESIGN §15). The backward makes the same
/// split: the pointwise GEMMs, or the implicit weight gradient plus
/// ConvDataGrad. Both directions run on prepacked weight panels.
class Conv2d : public Layer {
 public:
  struct Options {
    std::int64_t in_c = 0;
    std::int64_t out_c = 0;
    std::int64_t kernel = 3;
    std::int64_t stride = 1;
    std::int64_t pad = -1;  // -1 = "same" for stride 1: dilation*(k/2)
    std::int64_t dilation = 1;
    bool bias = true;
  };

  Conv2d(std::string name, const Options& opts, Rng& rng);

  Tensor Forward(const Tensor& input, bool train) override;
  Tensor Backward(const Tensor& grad_output) override;
  TensorShape OutputShape(const TensorShape& input) const override;
  std::vector<Param*> Params() override;

  /// Forward with extra epilogue ops fused into the GEMM writeback —
  /// what Sequential's fusion pass calls for Conv2d→BN(→ReLU) chains.
  /// Non-empty `ops` require FP32 precision (FP16 emulation quantises
  /// between layers, which the fold would skip); Forward() is exactly
  /// ForwardFused(input, train, {}).
  Tensor ForwardFused(const Tensor& input, bool train,
                      const ConvFusedOps& ops);

  const Options& options() const { return opts_; }
  Param& weight() { return weight_; }

 private:
  ConvGeometry Geometry(std::int64_t h, std::int64_t w) const;
  /// Weights as used in compute: FP32, or binary16-rounded under FP16.
  const Tensor& ComputeWeight();
  bool UsePointwiseFastPath() const;

  Options opts_;
  Param weight_;
  std::optional<Param> bias_;
  Tensor quantised_weight_;  // scratch for FP16 emulation
  Tensor cached_input_;      // saved for the backward pass
  ConvWorkspace workspace_;  // per-shard scratch/grad buffers (DESIGN §9)
  // Weight matrix prepacked into the GEMM engine's A-panel layout, once
  // per Forward/Backward and shared read-only across batch shards
  // (forward uses W; the pointwise backward's data gradient W^T;
  // every other backward the per-tap W_t^T panels of data_grad_).
  PackedGemmA packed_weight_;
  PackedGemmA packed_weight_bwd_;
  ConvDataGrad data_grad_;
};

/// Transposed convolution ("deconv", light-blue layers of Fig 1) used by
/// the full-resolution DeepLabv3+ decoder and the Tiramisu up path.
/// Forward is exactly the data-gradient of a Conv2d with swapped roles;
/// output size is (H-1)*stride - 2*pad + kernel.
class ConvTranspose2d : public Layer {
 public:
  struct Options {
    std::int64_t in_c = 0;
    std::int64_t out_c = 0;
    std::int64_t kernel = 3;
    std::int64_t stride = 2;
    std::int64_t pad = -1;  // -1 = (kernel - stride + 1) / 2
    /// Extra rows/cols appended to the output (TensorFlow SAME-style
    /// doubling: kernel 3, stride 2, pad 1, out_pad 1 gives exactly 2H).
    std::int64_t out_pad = 0;
    bool bias = true;
  };

  ConvTranspose2d(std::string name, const Options& opts, Rng& rng);

  Tensor Forward(const Tensor& input, bool train) override;
  Tensor Backward(const Tensor& grad_output) override;
  TensorShape OutputShape(const TensorShape& input) const override;
  std::vector<Param*> Params() override;

  const Options& options() const { return opts_; }

 private:
  /// Geometry of the *underlying* convolution (output -> input direction).
  ConvGeometry Geometry(std::int64_t out_h, std::int64_t out_w) const;
  const Tensor& ComputeWeight();

  Options opts_;
  Param weight_;  // [in_c, out_c*k*k]
  std::optional<Param> bias_;
  Tensor quantised_weight_;
  Tensor cached_input_;
  ConvWorkspace workspace_;
  // Forward is the underlying conv's data gradient; backward's data
  // gradient is the underlying conv's implicit forward with W panels.
  ConvDataGrad data_grad_;
  PackedGemmA packed_weight_;
};

}  // namespace exaclim
